//! Symmetric self-comparison: exploit `γ = γᵀ`.
//!
//! Linkage disequilibrium compares a panel against itself with a symmetric
//! operator (`popc(a & b) = popc(b & a)`, likewise XOR), so only the upper
//! triangle of `γ` needs computing — the classical SYRK-style saving over
//! GEMM, worth up to 2× on large panels. It runs on the [`crate::gemm`]
//! tile schedule with each row block cut off at its diagonal: the tiles of
//! the rows `ic..ic + m_c` cover only columns `ic..m`. The tile that
//! computes a column `j` past its diagonal block also writes the column's
//! transpose `γ[j][ic..ic + m_c]`, in the same task, so there is no second
//! pass over `γ`. The row segments and mirror pieces partition γ, and each
//! tile writes all of its cells, so γ is allocated uninitialized and never
//! zero-filled.
//!
//! The mirror is all transposed accesses, so its order matters. A γ row
//! of a 1024-SNP panel is 4 KiB, each on its own page. A tile writes one
//! mirror piece at a time, contiguously, reading the column down its own
//! rows, which its sums have just left in cache. Writing row by row
//! instead sends consecutive stores to different pieces, each on another
//! page, and misses the TLB: on a 1019-SNP panel that order cost ~0.8 ms
//! where this one costs ~0.2 ms (2-vCPU AVX-512 host, EXPERIMENTS.md).

use std::mem::MaybeUninit;

use rayon::prelude::*;
use snp_bitmat::{BitMatrix, CompareOp, CountMatrix};

use crate::blocking::{CpuBlocking, MR, NR};
use crate::gemm::{check_shapes, fresh, pack_a, run_tile, tiles};
use crate::parallel::min_tiles;

// A diagonal block starts on a row-block boundary, a multiple of `m_c` and
// so of MR; starting the tile's columns there keeps its panels NR-aligned.
const _: () = assert!(MR.is_multiple_of(NR));

/// True when `op(a, b) == op(b, a)` for all words — the precondition for
/// the triangular saving. AND and XOR are symmetric; AND-NOT is not.
pub fn op_is_symmetric(op: CompareOp) -> bool {
    matches!(op, CompareOp::And | CompareOp::Xor)
}

/// Self-comparison `γ = A ⋄ Aᵀ` computing only each row block's columns
/// from its diagonal block on, each tile also writing the transpose of its
/// columns below the diagonal. Results are identical to the full
/// [`gamma_parallel`](crate::parallel::gamma_parallel) (tested), at
/// roughly half the block work for large `m`. The tiles run on the rayon
/// pool, at least four per thread.
///
/// Panics if `op` is not symmetric or `blocking` is invalid.
pub fn gamma_self_symmetric(
    a: &BitMatrix<u64>,
    op: CompareOp,
    blocking: &CpuBlocking,
) -> CountMatrix {
    assert!(
        op_is_symmetric(op),
        "operator {op} is not symmetric; use the general engine for AND-NOT"
    );
    let m = a.rows();
    check_shapes(a, a, (m, m), blocking);
    let a_packs = pack_a(a, blocking);
    let fill = |c: &mut [MaybeUninit<u32>]| {
        tiles(c, m, blocking, min_tiles(), true)
            .into_par_iter()
            .for_each(|mut tile| run_tile(op, &a_packs, a, &mut tile));
    };
    // SAFETY: the tiles' row segments and mirror pieces partition γ, and
    // each tile writes all of its cells.
    unsafe { fresh(m, m, fill) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::gamma_parallel;
    use snp_bitmat::reference_gamma_self;

    fn matrix(rows: usize, cols: usize) -> BitMatrix<u64> {
        BitMatrix::from_fn(rows, cols, |r, c| (r * 23 + c * 11) % 7 < 3)
    }

    fn blocking_small() -> CpuBlocking {
        CpuBlocking {
            m_r: MR,
            n_r: NR,
            k_c: 3,
            m_c: 2 * MR,
            n_c: 3 * NR,
        }
    }

    #[test]
    fn symmetric_matches_full_for_and_and_xor() {
        for rows in [1usize, 7, MR, 3 * MR + 5, 100] {
            let a = matrix(rows, 300);
            for op in [CompareOp::And, CompareOp::Xor] {
                let full = gamma_parallel(&a, &a, op, &blocking_small());
                let sym = gamma_self_symmetric(&a, op, &blocking_small());
                assert_eq!(sym.first_mismatch(&full), None, "rows={rows} op={op}");
            }
        }
    }

    #[test]
    fn symmetric_matches_full_across_row_block_edges() {
        // Around the default m_c = 96: one short block, exact multiples,
        // one row over, and the LD panel's 1019 rows.
        let blocking = CpuBlocking::default();
        assert_eq!(blocking.m_c, 96);
        for rows in [1usize, 7, 8, 95, 96, 97, 200, 1019] {
            let a = matrix(rows, 200);
            let full = gamma_parallel(&a, &a, CompareOp::And, &blocking);
            let sym = gamma_self_symmetric(&a, CompareOp::And, &blocking);
            assert_eq!(sym.first_mismatch(&full), None, "rows={rows}");
        }
    }

    #[test]
    fn symmetric_matches_reference_with_default_blocking() {
        let a = matrix(90, 777);
        let sym = gamma_self_symmetric(&a, CompareOp::And, &CpuBlocking::default());
        let want = reference_gamma_self(&a, CompareOp::And);
        assert_eq!(sym.first_mismatch(&want), None);
    }

    #[test]
    fn result_is_exactly_symmetric() {
        let a = matrix(64, 256);
        let c = gamma_self_symmetric(&a, CompareOp::Xor, &blocking_small());
        for i in 0..64 {
            for j in 0..64 {
                assert_eq!(c.get(i, j), c.get(j, i));
            }
        }
    }

    #[test]
    #[should_panic(expected = "not symmetric")]
    fn andnot_rejected() {
        let a = matrix(8, 64);
        let _ = gamma_self_symmetric(&a, CompareOp::AndNot, &blocking_small());
    }

    #[test]
    fn empty_matrix_ok() {
        let a = BitMatrix::<u64>::zeros(0, 0);
        let c = gamma_self_symmetric(&a, CompareOp::And, &CpuBlocking::default());
        assert_eq!((c.rows(), c.cols()), (0, 0));
    }

    #[test]
    fn operator_symmetry_classification() {
        assert!(op_is_symmetric(CompareOp::And));
        assert!(op_is_symmetric(CompareOp::Xor));
        assert!(!op_is_symmetric(CompareOp::AndNot));
    }
}
