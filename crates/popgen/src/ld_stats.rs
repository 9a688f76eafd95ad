//! Linkage-disequilibrium statistics from comparison counts.
//!
//! The popcount-GEMM produces raw co-occurrence counts; the statistics of
//! interest derive from them (paper §II-A): for loci A and B with minor
//! allele frequencies `p_A`, `p_B` and joint frequency `p_AB`,
//!
//! * `D = p_AB − p_A·p_B` (the covariance of the allele indicators),
//! * `D' = D / D_max` (Lewontin's normalized D),
//! * `r² = D² / (p_A(1−p_A) p_B(1−p_B))` (the squared correlation).
//!
//! All three need exactly three counts per pair — `γ_AB`, `γ_AA`, `γ_BB` —
//! which is why a single AND-popcount GEMM of the panel against itself
//! suffices to compute LD for every pair.

use snp_bitmat::CountMatrix;

/// LD statistics for one pair of loci.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LdPair {
    /// Joint minor-allele frequency `p_AB`.
    pub p_ab: f64,
    /// Marginal frequency of locus A.
    pub p_a: f64,
    /// Marginal frequency of locus B.
    pub p_b: f64,
    /// Raw disequilibrium coefficient `D`.
    pub d: f64,
    /// Lewontin's `D'` in `[-1, 1]` (0 when either locus is monomorphic).
    pub d_prime: f64,
    /// Squared correlation `r²` in `[0, 1]` (0 when either locus is
    /// monomorphic).
    pub r2: f64,
}

/// Computes the LD statistics for loci `a`, `b` from the self-comparison
/// count matrix `gamma` (AND-popcount of the panel against itself) over
/// `samples` haplotypes.
pub fn ld_pair(gamma: &CountMatrix, samples: usize, a: usize, b: usize) -> LdPair {
    assert!(samples > 0, "need at least one sample");
    let n = samples as f64;
    let p_ab = gamma.get(a, b) as f64 / n;
    let p_a = gamma.get(a, a) as f64 / n;
    let p_b = gamma.get(b, b) as f64 / n;
    let d = p_ab - p_a * p_b;
    let denom_r2 = p_a * (1.0 - p_a) * p_b * (1.0 - p_b);
    let r2 = if denom_r2 > 0.0 {
        d * d / denom_r2
    } else {
        0.0
    };
    let d_max = if d >= 0.0 {
        (p_a * (1.0 - p_b)).min((1.0 - p_a) * p_b)
    } else {
        (p_a * p_b).min((1.0 - p_a) * (1.0 - p_b))
    };
    let d_prime = if d_max > 0.0 { d / d_max } else { 0.0 };
    LdPair {
        p_ab,
        p_a,
        p_b,
        d,
        d_prime,
        r2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snp_bitmat::{reference_gamma_self, BitMatrix, CompareOp};

    fn gamma_of(rows: &[Vec<bool>]) -> (CountMatrix, usize) {
        let m = BitMatrix::<u64>::from_bool_rows(rows);
        (reference_gamma_self(&m, CompareOp::And), m.cols())
    }

    #[test]
    fn perfectly_linked_loci() {
        // Identical allele patterns: D' = 1, r² = 1.
        let pattern = vec![true, true, false, false, true, false, false, false];
        let (g, n) = gamma_of(&[pattern.clone(), pattern]);
        let ld = ld_pair(&g, n, 0, 1);
        assert!((ld.r2 - 1.0).abs() < 1e-12, "r² = {}", ld.r2);
        assert!((ld.d_prime - 1.0).abs() < 1e-12);
        assert!(ld.d > 0.0);
    }

    #[test]
    fn opposite_loci_have_negative_d() {
        let a = vec![true, true, false, false];
        let b = vec![false, false, true, true];
        let (g, n) = gamma_of(&[a, b]);
        let ld = ld_pair(&g, n, 0, 1);
        assert!(ld.d < 0.0);
        assert!(
            (ld.d_prime + 1.0).abs() < 1e-12,
            "complete repulsion: D' = -1"
        );
        assert!((ld.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn independent_loci_in_perfect_equilibrium() {
        // p_A = p_B = 1/2, all four haplotypes equally frequent -> D = 0.
        let a = vec![true, true, false, false];
        let b = vec![true, false, true, false];
        let (g, n) = gamma_of(&[a, b]);
        let ld = ld_pair(&g, n, 0, 1);
        assert_eq!(ld.d, 0.0);
        assert_eq!(ld.r2, 0.0);
        assert_eq!(ld.d_prime, 0.0);
    }

    #[test]
    fn monomorphic_locus_yields_zero_statistics() {
        let a = vec![false, false, false, false];
        let b = vec![true, false, true, false];
        let (g, n) = gamma_of(&[a, b]);
        let ld = ld_pair(&g, n, 0, 1);
        assert_eq!(ld.p_a, 0.0);
        assert_eq!(ld.r2, 0.0);
        assert_eq!(ld.d_prime, 0.0);
    }

    #[test]
    fn statistics_are_bounded() {
        use crate::population::{generate_panel, PanelConfig};
        let p = generate_panel(
            &PanelConfig {
                snps: 30,
                samples: 500,
                ..Default::default()
            },
            21,
        );
        let g = reference_gamma_self(&p.matrix, CompareOp::And);
        for a in 0..30 {
            for b in 0..30 {
                let ld = ld_pair(&g, 500, a, b);
                assert!(ld.r2 >= -1e-12 && ld.r2 <= 1.0 + 1e-12, "r²={}", ld.r2);
                assert!(
                    ld.d_prime >= -1.0 - 1e-9 && ld.d_prime <= 1.0 + 1e-9,
                    "D'={}",
                    ld.d_prime
                );
                assert!((-0.25..=0.25).contains(&ld.d), "|D| <= 1/4 always");
            }
        }
    }

    #[test]
    fn ld_pair_is_symmetric_with_unit_diagonal() {
        use crate::population::{generate_panel, PanelConfig};
        let p = generate_panel(
            &PanelConfig {
                snps: 12,
                samples: 300,
                ..Default::default()
            },
            22,
        );
        let g = reference_gamma_self(&p.matrix, CompareOp::And);
        let r2 = |a, b| ld_pair(&g, 300, a, b).r2;
        for a in 0..12 {
            // Polymorphic loci correlate perfectly with themselves.
            let pa = g.get(a, a);
            if pa > 0 && (pa as usize) < 300 {
                assert!((r2(a, a) - 1.0).abs() < 1e-9);
            }
            for b in 0..12 {
                assert!((r2(a, b) - r2(b, a)).abs() < 1e-12);
            }
        }
    }
}
