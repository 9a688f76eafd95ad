//! Forensic score interpretation: from raw `γ` counts to decisions.
//!
//! FastID's output is a difference count per (query, profile) pair; turning
//! it into an identification requires a statistical model (paper §II-B:
//! "the number of set bits in the result is an indication of the likelihood
//! that an input comes from the suspect"). This module provides the
//! standard log-likelihood-ratio treatment:
//!
//! * under H₁ (same source), each site mismatches independently with the
//!   genotyping error rate `e`;
//! * under H₂ (different, unrelated source), site `i` mismatches with
//!   probability `2 q_i (1 − q_i)` where `q_i` is the frequency of the
//!   *encoded bit* being set (for the dominant encoding, the carrier
//!   frequency of the minor allele);
//!
//! both counts are sums of independent Bernoullis, approximated by normals
//! (the panel sizes of interest are hundreds to thousands of sites).

/// Identity-search scorer for a fixed panel.
#[derive(Debug, Clone)]
pub struct IdentityScorer {
    /// Per-site probability that the encoded bit is set in a random
    /// profile.
    bit_freq: Vec<f64>,
    /// Per-site genotyping/transcription error rate.
    error_rate: f64,
    // Cached moments.
    h2_mean: f64,
    h2_var: f64,
}

impl IdentityScorer {
    /// Builds a scorer from per-site set-bit frequencies and an error rate.
    pub fn new(bit_freq: Vec<f64>, error_rate: f64) -> Self {
        assert!(!bit_freq.is_empty(), "panel must have sites");
        assert!(
            (0.0..0.5).contains(&error_rate),
            "error rate {error_rate} outside [0, 0.5)"
        );
        for (i, &q) in bit_freq.iter().enumerate() {
            assert!((0.0..=1.0).contains(&q), "site {i}: bad frequency {q}");
        }
        let (mut mean, mut var) = (0.0f64, 0.0f64);
        for &q in &bit_freq {
            let p = 2.0 * q * (1.0 - q);
            mean += p;
            var += p * (1.0 - p);
        }
        IdentityScorer {
            bit_freq,
            error_rate,
            h2_mean: mean,
            h2_var: var,
        }
    }

    /// Builds the scorer from minor-allele frequencies under the dominant
    /// encoding (bit = carries minor allele): carrier frequency
    /// `q = 1 − (1 − maf)²` per HWE.
    pub fn from_maf(maf: &[f64], error_rate: f64) -> Self {
        let bit_freq = maf.iter().map(|&p| 1.0 - (1.0 - p) * (1.0 - p)).collect();
        Self::new(bit_freq, error_rate)
    }

    /// Number of panel sites.
    pub fn sites(&self) -> usize {
        self.bit_freq.len()
    }

    /// Expected differences between two *unrelated* profiles.
    pub fn expected_unrelated_differences(&self) -> f64 {
        self.h2_mean
    }

    /// Expected differences between two samples of the *same* source.
    pub fn expected_same_source_differences(&self) -> f64 {
        // Each site flips independently in either observation.
        let e = self.error_rate;
        let flip = 2.0 * e * (1.0 - e);
        flip * self.sites() as f64
    }

    /// Natural-log likelihood ratio of H₁ (same source) vs H₂ (unrelated)
    /// for an observed difference count, under normal approximations of
    /// both mismatch distributions.
    pub fn log_lr(&self, differences: u32) -> f64 {
        let d = differences as f64;
        let n = self.sites() as f64;
        let e = self.error_rate;
        let p1 = 2.0 * e * (1.0 - e);
        let (m1, v1) = (p1 * n, (p1 * (1.0 - p1) * n).max(0.25));
        let (m2, v2) = (self.h2_mean, self.h2_var.max(0.25));
        let log_norm = |x: f64, m: f64, v: f64| -0.5 * ((x - m) * (x - m) / v + v.ln());
        log_norm(d, m1, v1) - log_norm(d, m2, v2)
    }

    /// A decision threshold on the difference count: the midpoint (in
    /// standard-deviation units) between the two hypotheses' means —
    /// differences at or below it favor identity.
    pub fn decision_threshold(&self) -> u32 {
        let m1 = self.expected_same_source_differences();
        let s1 = (m1.max(0.25)).sqrt();
        let m2 = self.h2_mean;
        let s2 = self.h2_var.max(0.25).sqrt();
        // Equal-z crossing between the two normals.
        let t = (m1 * s2 + m2 * s1) / (s1 + s2);
        t.floor() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forensic::{generate_database, generate_queries, DatabaseConfig};
    use crate::FrequencySpectrum;
    use snp_bitmat::{reference_gamma, CompareOp};

    fn scorer_for(db: &crate::Database, e: f64) -> IdentityScorer {
        // The generators draw bits directly at the site MAF (haploid-style
        // profiles), so the bit frequency *is* the site MAF.
        IdentityScorer::new(db.site_maf.clone(), e)
    }

    #[test]
    fn planted_queries_score_positive_nonmembers_negative() {
        let db = generate_database(
            &DatabaseConfig {
                profiles: 300,
                snps: 512,
                ..Default::default()
            },
            5,
        );
        let qs = generate_queries(&db, 12, 6, 0.01, 6);
        let gamma = reference_gamma(&qs.queries, &db.profiles, CompareOp::Xor);
        let scorer = scorer_for(&db, 0.01);
        for (q, truth) in qs.truth.iter().enumerate() {
            match truth {
                Some(t) => {
                    let lr = scorer.log_lr(gamma.get(q, *t));
                    assert!(lr > 20.0, "planted query {q}: log LR {lr} too weak");
                }
                None => {
                    let best = gamma.argmin_in_row(q).unwrap();
                    let lr = scorer.log_lr(gamma.get(q, best));
                    assert!(lr < -20.0, "non-member {q}: log LR {lr} should be damning");
                }
            }
        }
    }

    #[test]
    fn expected_unrelated_differences_match_empirical() {
        let db = generate_database(
            &DatabaseConfig {
                profiles: 400,
                snps: 600,
                spectrum: FrequencySpectrum::Uniform { lo: 0.1, hi: 0.5 },
            },
            9,
        );
        let scorer = scorer_for(&db, 0.01);
        let gamma = reference_gamma(&db.profiles, &db.profiles, CompareOp::Xor);
        let mut sum = 0.0;
        let mut n = 0usize;
        for i in 0..100 {
            for j in (i + 1)..100 {
                sum += gamma.get(i, j) as f64;
                n += 1;
            }
        }
        let emp = sum / n as f64;
        let expect = scorer.expected_unrelated_differences();
        assert!(
            (emp - expect).abs() / expect < 0.05,
            "empirical {emp:.1} vs model {expect:.1}"
        );
    }

    #[test]
    fn threshold_separates_hypotheses() {
        let scorer = IdentityScorer::from_maf(&vec![0.3; 800], 0.01);
        let t = scorer.decision_threshold();
        let same = scorer.expected_same_source_differences();
        let diff = scorer.expected_unrelated_differences();
        assert!(
            same < t as f64 && (t as f64) < diff,
            "{same} < {t} < {diff}"
        );
        assert!(scorer.log_lr(same.round() as u32) > 0.0);
        assert!(scorer.log_lr(diff.round() as u32) < 0.0);
    }

    #[test]
    fn log_lr_is_monotone_decreasing_in_differences() {
        let scorer = IdentityScorer::from_maf(&vec![0.25; 500], 0.02);
        let mut prev = f64::INFINITY;
        for d in (0..300).step_by(20) {
            let lr = scorer.log_lr(d);
            assert!(lr < prev, "log LR must fall as differences grow");
            prev = lr;
        }
    }

    #[test]
    #[should_panic(expected = "error rate")]
    fn bad_error_rate_rejected() {
        let _ = IdentityScorer::from_maf(&[0.3], 0.7);
    }
}
