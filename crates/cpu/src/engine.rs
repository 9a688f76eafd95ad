//! The public CPU engine: algorithm-level entry points over the blocked
//! popcount-GEMM.

use snp_bitmat::{BitMatrix, CompareOp, CountMatrix};
use snp_trace::Tracer;

use crate::blocking::CpuBlocking;
use crate::gemm::{check_shapes, overwrite};
use crate::parallel::{gamma_parallel, run_tiles, ParallelStats};
use crate::symmetric::gamma_self_symmetric;

/// A configured CPU comparison engine.
///
/// [`gamma`](Self::gamma), [`identity_search`](Self::identity_search) and
/// [`mixture_analysis`](Self::mixture_analysis) run the blocked GEMM over
/// every tile of `γ`. [`ld_self`](Self::ld_self) compares a panel with
/// itself, so it runs the same tiles over the upper triangle only, each
/// tile also writing its transpose. The tiles run on the rayon pool.
///
/// ```
/// use snp_cpu::CpuEngine;
/// use snp_bitmat::{BitMatrix, CompareOp};
///
/// let panel = BitMatrix::<u64>::from_fn(16, 200, |r, c| (r + c) % 3 == 0);
/// let engine = CpuEngine::new();
/// let gamma = engine.ld_self(&panel);           // AND self-comparison
/// assert_eq!(gamma.rows(), 16);
/// let direct = engine.gamma(&panel, &panel, CompareOp::And);
/// assert_eq!(gamma.first_mismatch(&direct), None);
/// ```
#[derive(Debug, Clone)]
pub struct CpuEngine {
    blocking: CpuBlocking,
}

impl Default for CpuEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl CpuEngine {
    /// Multithreaded engine with cache-derived blocking.
    pub fn new() -> Self {
        CpuEngine {
            blocking: CpuBlocking::default(),
        }
    }

    /// Overrides the blocking parameters.
    pub fn with_blocking(mut self, blocking: CpuBlocking) -> Self {
        assert!(
            blocking.violations().is_empty(),
            "invalid blocking: {:?}",
            blocking.violations()
        );
        self.blocking = blocking;
        self
    }

    /// The blocking in effect.
    pub fn blocking(&self) -> &CpuBlocking {
        &self.blocking
    }

    /// General comparison: `γ[i][j] = Σ_k popc(op(a[i][k], b[j][k]))`, in
    /// a fresh output that the tiles write once, without zero-filling it
    /// first.
    pub fn gamma(&self, a: &BitMatrix<u64>, b: &BitMatrix<u64>, op: CompareOp) -> CountMatrix {
        gamma_parallel(a, b, op, &self.blocking)
    }

    /// Like [`gamma`](Self::gamma), but into `c`, a row-major
    /// `a.rows() × b.rows()` γ whose every cell it overwrites; returns
    /// what the parallel schedule ran.
    pub fn gamma_into(
        &self,
        a: &BitMatrix<u64>,
        b: &BitMatrix<u64>,
        op: CompareOp,
        c: &mut [u32],
    ) -> ParallelStats {
        assert_eq!(
            c.len(),
            a.rows() * b.rows(),
            "output must hold A rows × B rows cells"
        );
        check_shapes(a, b, (a.rows(), b.rows()), &self.blocking);
        // SAFETY: the tiles write only counts into `c`.
        let cells = unsafe { overwrite(c) };
        run_tiles(a, b, op, &self.blocking, cells, &Tracer::disabled())
    }

    /// Linkage disequilibrium: AND self-comparison of an SNP panel
    /// (paper Eq. 1). The result feeds `snp_popgen::ld_stats`-style
    /// post-processing.
    ///
    /// `γ` is symmetric, so this computes only each row block's columns
    /// from its diagonal block on, and the tile that computes a column
    /// also writes its transpose below the diagonal
    /// ([`gamma_self_symmetric`]): the SYRK-style saving, identical
    /// results to [`gamma`](Self::gamma) at roughly half the block work.
    pub fn ld_self(&self, panel: &BitMatrix<u64>) -> CountMatrix {
        gamma_self_symmetric(panel, CompareOp::And, &self.blocking)
    }

    /// FastID identity search: XOR of queries against a database
    /// (paper Eq. 2). `γ[q][p] == 0` is a positive match.
    pub fn identity_search(
        &self,
        queries: &BitMatrix<u64>,
        database: &BitMatrix<u64>,
    ) -> CountMatrix {
        self.gamma(queries, database, CompareOp::Xor)
    }

    /// FastID mixture analysis (paper Eq. 3): counts reference alleles
    /// missing from each mixture. With `pre_negate`, the mixture matrix is
    /// negated up front and the kernel runs plain AND (the §II-C
    /// transformation — profitable on devices without fused AND-NOT);
    /// results are identical either way.
    pub fn mixture_analysis(
        &self,
        references: &BitMatrix<u64>,
        mixtures: &BitMatrix<u64>,
        pre_negate: bool,
    ) -> CountMatrix {
        if pre_negate {
            let negated = mixtures.negated();
            self.gamma(references, &negated, CompareOp::And)
        } else {
            self.gamma(references, mixtures, CompareOp::AndNot)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::gamma_blocked;
    use snp_bitmat::reference_gamma;

    fn matrix(rows: usize, cols: usize, salt: usize) -> BitMatrix<u64> {
        BitMatrix::from_fn(rows, cols, |r, c| (r * 19 + c * 23 + salt) % 6 < 2)
    }

    #[test]
    fn engine_paths_agree_with_reference() {
        let a = matrix(30, 300, 0);
        let b = matrix(25, 300, 1);
        let engine = CpuEngine::new();
        for op in CompareOp::ALL {
            let got = engine.gamma(&a, &b, op);
            let want = reference_gamma(&a, &b, op);
            assert_eq!(got.first_mismatch(&want), None, "op {op}");
            let blocked = gamma_blocked(&a, &b, op, engine.blocking());
            assert_eq!(got.first_mismatch(&blocked), None, "op {op}: blocked");
        }
    }

    #[test]
    fn ld_self_is_and_self() {
        let a = matrix(12, 200, 2);
        let e = CpuEngine::new();
        assert_eq!(
            e.ld_self(&a)
                .first_mismatch(&e.gamma(&a, &a, CompareOp::And)),
            None
        );
    }

    #[test]
    fn identity_search_finds_planted_profile() {
        // Hash-mixed pattern so that no two database rows coincide.
        let db = BitMatrix::<u64>::from_fn(50, 256, |r, c| {
            (r.wrapping_mul(0x9E37_79B9) ^ c.wrapping_mul(0x85EB_CA6B)).rotate_left(7) % 5 == 0
        });
        let q = db.row_slice(17, 18);
        let gamma = CpuEngine::new().identity_search(&q, &db);
        assert_eq!(gamma.get(0, 17), 0);
        assert_eq!(gamma.argmin_in_row(0), Some(17));
    }

    #[test]
    fn mixture_prenegation_is_equivalent() {
        let refs = matrix(20, 192, 4);
        let mixes = matrix(6, 192, 5);
        let e = CpuEngine::new();
        let direct = e.mixture_analysis(&refs, &mixes, false);
        let pre = e.mixture_analysis(&refs, &mixes, true);
        assert_eq!(direct.first_mismatch(&pre), None);
    }

    #[test]
    fn zero_width_operands_give_zero_counts() {
        // No shared words, so no k_c block runs and every tile writes its
        // zeros itself: into a fresh γ, and over a poisoned one. 100 and
        // 150 rows are two row blocks of the default m_c = 96, so `ld_self`
        // writes mirror pieces too.
        let (a, b) = (
            BitMatrix::<u64>::zeros(100, 0),
            BitMatrix::<u64>::zeros(150, 0),
        );
        let zeros = CountMatrix::zeros(100, 150);
        let engine = CpuEngine::new();
        for op in CompareOp::ALL {
            let got = engine.gamma(&a, &b, op);
            assert_eq!(got.first_mismatch(&zeros), None, "op {op}");
            let blocked = gamma_blocked(&a, &b, op, engine.blocking());
            assert_eq!(blocked.first_mismatch(&zeros), None, "op {op}: blocked");
            let mut c: Vec<u32> = (0..100 * 150).map(|i| u32::MAX ^ i).collect();
            engine.gamma_into(&a, &b, op, &mut c);
            assert_eq!(c, zeros.as_slice(), "op {op}: gamma_into");
        }
        let got = engine.identity_search(&a, &b);
        assert_eq!(got.first_mismatch(&zeros), None);
        let got = engine.ld_self(&b);
        assert_eq!(got.first_mismatch(&CountMatrix::zeros(150, 150)), None);
    }

    #[test]
    #[should_panic(expected = "invalid blocking")]
    fn with_blocking_rejects_bad_params() {
        let bad = CpuBlocking {
            m_r: 1,
            n_r: 1,
            k_c: 0,
            m_c: 1,
            n_c: 1,
        };
        let _ = CpuEngine::new().with_blocking(bad);
    }
}
