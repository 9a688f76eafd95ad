//! Forensic workloads: FastID identity search and mixture analysis.
//!
//! These generators produce NDIS-scale synthetic reference databases (the
//! paper sizes its Fig. 8 experiment after the FBI NDIS database, >20 M
//! profiles), query sets with known ground truth (planted matches plus
//! genotyping noise), and DNA mixtures formed as the union of contributor
//! profiles (a site shows the minor allele if any contributor carries it).

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use snp_bitmat::BitMatrix;

use crate::freq::FrequencySpectrum;
use crate::sampler::{threshold, words};

/// Configuration of a synthetic forensic reference database.
#[derive(Debug, Clone, PartialEq)]
pub struct DatabaseConfig {
    /// Number of reference profiles (rows).
    pub profiles: usize,
    /// Number of SNP sites per profile (bit columns).
    pub snps: usize,
    /// MAF spectrum of the panel. Forensic panels are ascertained for
    /// informativeness, so the default is Beta-shaped around intermediate
    /// frequencies.
    pub spectrum: FrequencySpectrum,
}

impl Default for DatabaseConfig {
    fn default() -> Self {
        DatabaseConfig {
            profiles: 4096,
            snps: 512,
            spectrum: FrequencySpectrum::Beta {
                alpha: 2.0,
                beta: 3.0,
            },
        }
    }
}

/// A generated database plus the per-site MAFs that produced it.
#[derive(Debug, Clone)]
pub struct Database {
    /// `profiles × snps` packed matrix.
    pub profiles: BitMatrix<u64>,
    /// The minor-allele frequency of each site.
    pub site_maf: Vec<f64>,
}

/// Generates a reference database deterministically from `seed`.
///
/// Profiles are sampled independently per site from the panel MAFs — the
/// standard random-mating model for unrelated individuals.
pub fn generate_database(cfg: &DatabaseConfig, seed: u64) -> Database {
    assert!(cfg.profiles > 0 && cfg.snps > 0);
    let mut rng = StdRng::seed_from_u64(seed);
    let site_maf = cfg.spectrum.sample_n(&mut rng, cfg.snps);
    let sites = site_thresholds(&site_maf);
    let mut profiles = BitMatrix::zeros(cfg.profiles, cfg.snps);
    for r in 0..cfg.profiles {
        let row = profiles.row_mut(r);
        for (w, bits) in row.iter_mut().zip(words(&mut rng, &sites)) {
            *w = bits;
        }
    }
    Database { profiles, site_maf }
}

/// The [`threshold`] of each site's MAF.
fn site_thresholds(site_maf: &[f64]) -> Vec<u64> {
    site_maf.iter().map(|&maf| threshold(maf)).collect()
}

/// A query set with ground truth for identity search.
#[derive(Debug, Clone)]
pub struct QuerySet {
    /// `queries × snps` packed matrix.
    pub queries: BitMatrix<u64>,
    /// For each query: `Some(db_row)` if it was planted as a (noisy) copy of
    /// a database profile, `None` if it is a random non-member.
    pub truth: Vec<Option<usize>>,
}

/// Builds `total` queries against `db`: the first `planted` are copies of
/// uniformly chosen database rows with each site flipped with probability
/// `noise` (genotyping error), the rest are fresh random profiles drawn from
/// the same site MAFs (true non-members).
pub fn generate_queries(
    db: &Database,
    total: usize,
    planted: usize,
    noise: f64,
    seed: u64,
) -> QuerySet {
    assert!(
        planted <= total,
        "cannot plant {planted} of {total} queries"
    );
    assert!((0.0..=0.5).contains(&noise));
    let mut rng = StdRng::seed_from_u64(seed);
    let snps = db.profiles.cols();
    // Noise 0 draws nothing: a planted query is then an exact copy.
    let flips = (noise > 0.0).then(|| vec![threshold(noise); snps]);
    let sites = site_thresholds(&db.site_maf);
    let mut queries = BitMatrix::zeros(total, snps);
    let mut truth = Vec::with_capacity(total);
    for q in 0..total {
        let row = queries.row_mut(q);
        if q < planted {
            let src = rng.random_range(0..db.profiles.rows());
            truth.push(Some(src));
            let src_row = row.iter_mut().zip(db.profiles.row(src));
            match &flips {
                Some(t) => {
                    for ((w, &s), flip) in src_row.zip(words(&mut rng, t)) {
                        *w = s ^ flip;
                    }
                }
                None => src_row.for_each(|(w, &s)| *w = s),
            }
        } else {
            truth.push(None);
            for (w, bits) in row.iter_mut().zip(words(&mut rng, &sites)) {
                *w = bits;
            }
        }
    }
    QuerySet { queries, truth }
}

/// A DNA mixture with known contributors.
#[derive(Debug, Clone)]
pub struct Mixture {
    /// The mixture profile: the bitwise OR of the contributors' profiles —
    /// a site exhibits the minor allele if any contributor carries it.
    pub profile: Vec<bool>,
    /// Database rows of the contributors.
    pub contributors: Vec<usize>,
}

/// Forms `count` mixtures, each the union of `contributors_per_mixture`
/// distinct database profiles. Returns the mixtures and, packed, the
/// `count × snps` mixture matrix (rows = mixtures) ready for comparison.
pub fn generate_mixtures(
    db: &Database,
    count: usize,
    contributors_per_mixture: usize,
    seed: u64,
) -> (Vec<Mixture>, BitMatrix<u64>) {
    assert!(contributors_per_mixture >= 1);
    assert!(
        contributors_per_mixture <= db.profiles.rows(),
        "not enough database profiles for {contributors_per_mixture} contributors"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let snps = db.profiles.cols();
    let mut matrix = BitMatrix::zeros(count, snps);
    let mut mixtures = Vec::with_capacity(count);
    for i in 0..count {
        let mut contributors = Vec::with_capacity(contributors_per_mixture);
        while contributors.len() < contributors_per_mixture {
            let c = rng.random_range(0..db.profiles.rows());
            if !contributors.contains(&c) {
                contributors.push(c);
            }
        }
        let row = matrix.row_mut(i);
        for &c in &contributors {
            for (w, &bits) in row.iter_mut().zip(db.profiles.row(c)) {
                *w |= bits;
            }
        }
        let profile = (0..snps).map(|s| matrix.get(i, s)).collect();
        mixtures.push(Mixture {
            profile,
            contributors,
        });
    }
    (mixtures, matrix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snp_bitmat::{reference_gamma, CompareOp};

    fn small_db() -> Database {
        generate_database(
            &DatabaseConfig {
                profiles: 200,
                snps: 256,
                ..Default::default()
            },
            77,
        )
    }

    #[test]
    fn database_shape_and_determinism() {
        let a = small_db();
        let b = small_db();
        assert_eq!(a.profiles, b.profiles);
        assert_eq!(a.profiles.rows(), 200);
        assert_eq!(a.profiles.cols(), 256);
        assert_eq!(a.site_maf.len(), 256);
        assert!(a.profiles.padding_is_zero());
    }

    #[test]
    fn database_density_tracks_mean_maf() {
        let db = generate_database(
            &DatabaseConfig {
                profiles: 500,
                snps: 400,
                spectrum: FrequencySpectrum::Fixed(0.25),
            },
            3,
        );
        assert!((db.profiles.density() - 0.25).abs() < 0.01);
    }

    #[test]
    fn noiseless_planted_query_matches_exactly() {
        let db = small_db();
        let qs = generate_queries(&db, 8, 8, 0.0, 5);
        let gamma = reference_gamma(&qs.queries, &db.profiles, CompareOp::Xor);
        for (q, truth) in qs.truth.iter().enumerate() {
            let t = truth.expect("all planted");
            assert_eq!(
                gamma.get(q, t),
                0,
                "planted query must have zero differences"
            );
            assert_eq!(gamma.argmin_in_row(q), Some(t));
        }
    }

    #[test]
    fn noisy_planted_query_is_still_nearest() {
        let db = small_db();
        let qs = generate_queries(&db, 6, 6, 0.02, 6);
        let gamma = reference_gamma(&qs.queries, &db.profiles, CompareOp::Xor);
        let mut total_differences = 0;
        for (q, truth) in qs.truth.iter().enumerate() {
            let t = truth.unwrap();
            let best = gamma.argmin_in_row(q).unwrap();
            assert_eq!(best, t, "2% noise should not change the nearest profile");
            total_differences += gamma.get(q, t);
        }
        // Any single query can escape flips (p ≈ 0.98^256 per query), so only
        // the aggregate is a safe assertion.
        assert!(
            total_differences > 0,
            "noise should introduce some differences"
        );
    }

    #[test]
    fn nonmember_queries_have_no_zero_match() {
        let db = small_db();
        let qs = generate_queries(&db, 10, 0, 0.0, 8);
        let gamma = reference_gamma(&qs.queries, &db.profiles, CompareOp::Xor);
        let zero_matches = (0..10)
            .flat_map(|q| (0..db.profiles.rows()).map(move |j| (q, j)))
            .filter(|&(q, j)| gamma.get(q, j) == 0)
            .count();
        assert_eq!(
            zero_matches, 0,
            "random 256-SNP profiles should never collide"
        );
    }

    #[test]
    fn mixture_is_union_of_contributors() {
        let db = small_db();
        let (mixtures, matrix) = generate_mixtures(&db, 4, 3, 9);
        assert_eq!(matrix.rows(), 4);
        for (i, mix) in mixtures.iter().enumerate() {
            assert_eq!(mix.contributors.len(), 3);
            for s in 0..db.profiles.cols() {
                let expected = mix.contributors.iter().any(|&c| db.profiles.get(c, s));
                assert_eq!(matrix.get(i, s), expected);
                assert_eq!(mix.profile[s], expected);
            }
        }
    }

    #[test]
    fn contributors_have_zero_andnot_against_their_mixture() {
        // γ = popc(r & !m) == 0 iff every allele of r appears in m — true
        // for real contributors (paper §II-C).
        let db = small_db();
        let (mixtures, matrix) = generate_mixtures(&db, 3, 2, 10);
        let gamma = reference_gamma(&db.profiles, &matrix, CompareOp::AndNot);
        for (i, mix) in mixtures.iter().enumerate() {
            for &c in &mix.contributors {
                assert_eq!(gamma.get(c, i), 0, "contributor {c} of mixture {i}");
            }
        }
        // Non-contributors should usually have positive scores.
        let positives = (0..db.profiles.rows())
            .filter(|r| !mixtures[0].contributors.contains(r))
            .filter(|&r| gamma.get(r, 0) > 0)
            .count();
        assert!(
            positives > 150,
            "most non-contributors must be excluded, got {positives}"
        );
    }

    #[test]
    #[should_panic(expected = "cannot plant")]
    fn too_many_planted_panics() {
        let db = small_db();
        let _ = generate_queries(&db, 2, 3, 0.0, 1);
    }
}
