//! Kinship from SNP comparisons.
//!
//! The forensic motivation the paper cites (\[4\], KinLinks) goes beyond
//! exact identity: relatives share segments, so their profiles are *closer*
//! than unrelated pairs without matching exactly. The XOR difference count
//! the FastID kernel already produces is exactly the identity-by-state
//! statistic needed: `IBS = 1 − γ_xor / sites`. This module provides a
//! pedigree-aware generator (children inherit each site from a random
//! parent) and IBS-based relationship classification, giving the comparison
//! engines a third forensic application with testable ground truth.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use snp_bitmat::{BitMatrix, CountMatrix};

use crate::sampler::{threshold, words};

/// Identity-by-state similarity from an XOR difference count over `sites`.
pub fn ibs(xor_differences: u32, sites: usize) -> f64 {
    assert!(sites > 0, "need at least one site");
    1.0 - xor_differences as f64 / sites as f64
}

/// Relationship classes distinguishable from haploid presence profiles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relationship {
    /// Same source (or identical twins): IBS ≈ 1.
    Identical,
    /// First-degree relatives (parent–child, full siblings).
    FirstDegree,
    /// Unrelated members of the population.
    Unrelated,
}

/// A generated family study: founders, children, and everyone's profiles.
#[derive(Debug, Clone)]
pub struct FamilyStudy {
    /// All profiles: founders first, then children.
    pub profiles: BitMatrix<u64>,
    /// For each child row index: its two parent row indices.
    pub parents: Vec<(usize, usize, usize)>,
    /// Number of founder rows.
    pub founders: usize,
    /// Per-site carrier frequency used for founders.
    pub site_freq: Vec<f64>,
}

/// Generates `founders` unrelated profiles plus `children`, each inheriting
/// every site from one of its two (distinct, random) parents — the haploid
/// analogue of Mendelian transmission for presence/absence encodings.
pub fn generate_family(
    founders: usize,
    children: usize,
    sites: usize,
    carrier_freq: f64,
    seed: u64,
) -> FamilyStudy {
    assert!(founders >= 2, "children need two distinct parents");
    assert!((0.0..=1.0).contains(&carrier_freq));
    let mut rng = StdRng::seed_from_u64(seed);
    let total = founders + children;
    let carriers = vec![threshold(carrier_freq); sites];
    let mut profiles = BitMatrix::zeros(total, sites);
    for r in 0..founders {
        let row = profiles.row_mut(r);
        for (w, bits) in row.iter_mut().zip(words(&mut rng, &carriers)) {
            *w = bits;
        }
    }
    // A set bit of the mask takes the site from parent 1, a clear one from
    // parent 2.
    let coin = vec![threshold(0.5); sites];
    let mut parents = Vec::with_capacity(children);
    for child in 0..children {
        let row = founders + child;
        let p1 = rng.random_range(0..founders);
        let mut p2 = rng.random_range(0..founders);
        while p2 == p1 {
            p2 = rng.random_range(0..founders);
        }
        let inherited: Vec<u64> = profiles
            .row(p1)
            .iter()
            .zip(profiles.row(p2))
            .zip(words(&mut rng, &coin))
            .map(|((&a, &b), mask)| (a & mask) | (b & !mask))
            .collect();
        profiles.row_mut(row).copy_from_slice(&inherited);
        parents.push((row, p1, p2));
    }
    FamilyStudy {
        profiles,
        parents,
        founders,
        site_freq: vec![carrier_freq; sites],
    }
}

/// IBS-threshold classifier calibrated from the panel's carrier frequency.
///
/// Expected IBS: identical = 1 − 2e(1−e) ≈ 1; unrelated =
/// 1 − 2q(1−q); parent–child = halfway between (each site matches the tested
/// parent with probability ½ exactly and behaves like unrelated otherwise).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KinshipClassifier {
    /// Mean carrier frequency of the panel.
    pub carrier_freq: f64,
}

impl KinshipClassifier {
    /// Expected IBS of an unrelated pair.
    pub fn expected_unrelated_ibs(&self) -> f64 {
        let q = self.carrier_freq;
        1.0 - 2.0 * q * (1.0 - q)
    }

    /// Expected IBS of a first-degree pair under per-site 50 % inheritance.
    pub fn expected_first_degree_ibs(&self) -> f64 {
        0.5 + 0.5 * self.expected_unrelated_ibs()
    }

    /// Classifies a pair from its IBS, using midpoints between the expected
    /// class values as decision boundaries.
    pub fn classify(&self, ibs_value: f64) -> Relationship {
        let unrel = self.expected_unrelated_ibs();
        let first = self.expected_first_degree_ibs();
        let ident_cut = (1.0 + first) / 2.0;
        let first_cut = (first + unrel) / 2.0;
        if ibs_value >= ident_cut {
            Relationship::Identical
        } else if ibs_value >= first_cut {
            Relationship::FirstDegree
        } else {
            Relationship::Unrelated
        }
    }
}

/// Classifies every pair of rows from an XOR `γ` matrix over `sites`.
pub fn classify_pairs(
    gamma: &CountMatrix,
    sites: usize,
    classifier: &KinshipClassifier,
) -> Vec<(usize, usize, Relationship)> {
    assert_eq!(gamma.rows(), gamma.cols(), "need a self-comparison matrix");
    let mut out = Vec::new();
    for i in 0..gamma.rows() {
        for j in (i + 1)..gamma.cols() {
            let rel = classifier.classify(ibs(gamma.get(i, j), sites));
            out.push((i, j, rel));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use snp_bitmat::{reference_gamma_self, CompareOp};

    const SITES: usize = 2048;
    const Q: f64 = 0.3;

    fn study() -> (FamilyStudy, CountMatrix) {
        let fam = generate_family(10, 8, SITES, Q, 77);
        let gamma = reference_gamma_self(&fam.profiles, CompareOp::Xor);
        (fam, gamma)
    }

    #[test]
    fn ibs_basics() {
        assert_eq!(ibs(0, 100), 1.0);
        assert_eq!(ibs(50, 100), 0.5);
        assert_eq!(ibs(100, 100), 0.0);
    }

    #[test]
    fn children_are_closer_to_parents_than_to_others() {
        let (fam, gamma) = study();
        for &(child, p1, p2) in &fam.parents {
            let d1 = gamma.get(child, p1);
            let d2 = gamma.get(child, p2);
            // Compare against every unrelated founder.
            for f in 0..fam.founders {
                if f == p1 || f == p2 {
                    continue;
                }
                let du = gamma.get(child, f);
                assert!(
                    d1 < du && d2 < du,
                    "child {child}: parent distances {d1}/{d2} vs unrelated {du}"
                );
            }
        }
    }

    #[test]
    fn classifier_recovers_the_pedigree() {
        let (fam, gamma) = study();
        let clf = KinshipClassifier { carrier_freq: Q };
        for &(child, p1, p2) in &fam.parents {
            assert_eq!(
                clf.classify(ibs(gamma.get(child, p1), SITES)),
                Relationship::FirstDegree,
                "child {child} vs parent {p1}"
            );
            assert_eq!(
                clf.classify(ibs(gamma.get(child, p2), SITES)),
                Relationship::FirstDegree
            );
        }
        // Founder pairs are unrelated; self-pairs identical.
        for i in 0..fam.founders {
            assert_eq!(
                clf.classify(ibs(gamma.get(i, i), SITES)),
                Relationship::Identical
            );
            for j in (i + 1)..fam.founders {
                assert_eq!(
                    clf.classify(ibs(gamma.get(i, j), SITES)),
                    Relationship::Unrelated,
                    "founders {i},{j}"
                );
            }
        }
    }

    #[test]
    fn expected_ibs_matches_empirical() {
        let (fam, gamma) = study();
        let clf = KinshipClassifier { carrier_freq: Q };
        // Unrelated founders.
        let mut sum = 0.0;
        let mut n = 0;
        for i in 0..fam.founders {
            for j in (i + 1)..fam.founders {
                sum += ibs(gamma.get(i, j), SITES);
                n += 1;
            }
        }
        let emp = sum / n as f64;
        assert!(
            (emp - clf.expected_unrelated_ibs()).abs() < 0.02,
            "unrelated: {emp} vs {}",
            clf.expected_unrelated_ibs()
        );
        // Parent-child.
        let mut sum = 0.0;
        let mut n = 0;
        for &(child, p1, p2) in &fam.parents {
            sum += ibs(gamma.get(child, p1), SITES) + ibs(gamma.get(child, p2), SITES);
            n += 2;
        }
        let emp = sum / n as f64;
        assert!(
            (emp - clf.expected_first_degree_ibs()).abs() < 0.03,
            "first-degree: {emp} vs {}",
            clf.expected_first_degree_ibs()
        );
    }

    #[test]
    fn classify_pairs_covers_all_pairs() {
        let (fam, gamma) = study();
        let clf = KinshipClassifier { carrier_freq: Q };
        let pairs = classify_pairs(&gamma, SITES, &clf);
        let total = fam.profiles.rows();
        assert_eq!(pairs.len(), total * (total - 1) / 2);
        let first_degree = pairs
            .iter()
            .filter(|&&(_, _, r)| r == Relationship::FirstDegree)
            .count();
        // At least the 16 planted child-parent pairs (siblings may add more).
        assert!(first_degree >= 16, "found {first_degree}");
    }

    #[test]
    fn deterministic_and_validated() {
        assert_eq!(
            generate_family(4, 2, 64, 0.3, 9).profiles,
            generate_family(4, 2, 64, 0.3, 9).profiles
        );
        assert!(std::panic::catch_unwind(|| generate_family(1, 1, 64, 0.3, 9)).is_err());
    }
}
