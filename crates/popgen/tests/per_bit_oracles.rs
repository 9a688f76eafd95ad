//! The word-at-a-time generators against the per-bit code they replaced.
//!
//! `per_bit` keeps each generator's former body unchanged: one
//! `random_bool` and one `BitMatrix::set` per bit. Every property runs both
//! on the same arguments at random seeds and asks for identical outputs,
//! matrices and ground truth alike, over ragged and whole-word widths.

use proptest::prelude::*;
use snp_popgen::forensic::{generate_database, generate_mixtures, generate_queries};
use snp_popgen::{generate_family, generate_panel, DatabaseConfig, FrequencySpectrum, PanelConfig};

/// The per-bit generators, as they were before they drew a word at a time.
mod per_bit {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use snp_bitmat::BitMatrix;
    use snp_popgen::{
        Database, DatabaseConfig, FamilyStudy, Mixture, Panel, PanelConfig, QuerySet,
    };

    pub fn generate_database(cfg: &DatabaseConfig, seed: u64) -> Database {
        assert!(cfg.profiles > 0 && cfg.snps > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let site_maf = cfg.spectrum.sample_n(&mut rng, cfg.snps);
        let mut profiles = BitMatrix::zeros(cfg.profiles, cfg.snps);
        for r in 0..cfg.profiles {
            for (c, &maf) in site_maf.iter().enumerate() {
                if rng.random_bool(maf) {
                    profiles.set(r, c, true);
                }
            }
        }
        Database { profiles, site_maf }
    }

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
        let mut queries = BitMatrix::zeros(total, snps);
        let mut truth = Vec::with_capacity(total);
        for q in 0..total {
            if q < planted {
                let src = rng.random_range(0..db.profiles.rows());
                truth.push(Some(src));
                for c in 0..snps {
                    let mut bit = db.profiles.get(src, c);
                    if noise > 0.0 && rng.random_bool(noise) {
                        bit = !bit;
                    }
                    if bit {
                        queries.set(q, c, true);
                    }
                }
            } else {
                truth.push(None);
                for (c, &maf) in db.site_maf.iter().enumerate() {
                    if rng.random_bool(maf) {
                        queries.set(q, c, true);
                    }
                }
            }
        }
        QuerySet { queries, truth }
    }

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
            let mut profile = vec![false; snps];
            for &c in &contributors {
                for (s, p) in profile.iter_mut().enumerate() {
                    *p |= db.profiles.get(c, s);
                }
            }
            for (s, &p) in profile.iter().enumerate() {
                if p {
                    matrix.set(i, s, true);
                }
            }
            mixtures.push(Mixture {
                profile,
                contributors,
            });
        }
        (mixtures, matrix)
    }

    pub fn generate_panel(cfg: &PanelConfig, seed: u64) -> Panel {
        assert!(cfg.snps > 0 && cfg.samples > 0, "panel must be non-empty");
        assert!(cfg.block_len >= 1, "block_len must be >= 1");
        assert!((0.0..=0.5).contains(&cfg.within_block_flip));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut matrix = BitMatrix::zeros(cfg.snps, cfg.samples);
        let mut block_of = vec![0usize; cfg.snps];
        let mut block = 0usize;
        let mut in_block = 0usize;
        let mut prev: Vec<bool> = vec![false; cfg.samples];
        #[allow(clippy::needless_range_loop)] // s indexes both the matrix and block_of
        for s in 0..cfg.snps {
            let fresh = s == 0 || in_block >= cfg.block_len;
            if fresh {
                if s != 0 {
                    block += 1;
                }
                in_block = 0;
                let maf = cfg.spectrum.sample(&mut rng);
                for (j, p) in prev.iter_mut().enumerate() {
                    *p = rng.random_bool(maf);
                    if *p {
                        matrix.set(s, j, true);
                    }
                }
            } else {
                for (j, p) in prev.iter_mut().enumerate() {
                    if rng.random_bool(cfg.within_block_flip) {
                        *p = !*p;
                    }
                    if *p {
                        matrix.set(s, j, true);
                    }
                }
            }
            block_of[s] = block;
            in_block += 1;
        }
        Panel { matrix, block_of }
    }

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
        let mut profiles = BitMatrix::zeros(total, sites);
        for r in 0..founders {
            for c in 0..sites {
                if rng.random_bool(carrier_freq) {
                    profiles.set(r, c, true);
                }
            }
        }
        let mut parents = Vec::with_capacity(children);
        for child in 0..children {
            let row = founders + child;
            let p1 = rng.random_range(0..founders);
            let mut p2 = rng.random_range(0..founders);
            while p2 == p1 {
                p2 = rng.random_range(0..founders);
            }
            for c in 0..sites {
                let src = if rng.random_bool(0.5) { p1 } else { p2 };
                if profiles.get(src, c) {
                    profiles.set(row, c, true);
                }
            }
            parents.push((row, p1, p2));
        }
        FamilyStudy {
            profiles,
            parents,
            founders,
            site_freq: vec![carrier_freq; sites],
        }
    }
}

/// Bit widths on either side of each word boundary.
const COLS: [usize; 5] = [1, 63, 64, 65, 127];

fn cols() -> impl Strategy<Value = usize> {
    (0..COLS.len()).prop_map(|i| COLS[i])
}

/// Every spectrum variant, Beta shapes below 1 included.
fn spectrum() -> impl Strategy<Value = FrequencySpectrum> {
    (
        0u8..4,
        0.01f64..=0.5,
        0.01f64..=0.49,
        0.2f64..=4.0,
        0.2f64..=4.0,
    )
        .prop_map(|(variant, x, y, alpha, beta)| match variant {
            0 => FrequencySpectrum::Fixed(x),
            1 => FrequencySpectrum::Uniform {
                lo: x.min(y),
                hi: x.max(y),
            },
            2 => FrequencySpectrum::Neutral { lo: y },
            _ => FrequencySpectrum::Beta { alpha, beta },
        })
}

/// A `block_len` of 1 to 20 and a panel's SNP count: in half the cases
/// any of 1 to 200, in the other half 8 to 17 full blocks and a last one
/// of 0 to `block_len − 1` SNPs, so one or two groups of eight blocks run
/// on the lanes where the CPU has them, and full and short blocks follow.
fn blocks() -> impl Strategy<Value = (usize, usize)> {
    (
        1usize..=20,
        any::<bool>(),
        1usize..=200,
        8usize..=17,
        0usize..20,
    )
        .prop_map(|(block_len, groups, snps, full, short)| {
            let snps = if groups {
                full * block_len + short % block_len
            } else {
                snps
            };
            (block_len, snps)
        })
}

/// Half the cases noiseless (no flip draws at all), half noisy.
fn noise() -> impl Strategy<Value = f64> {
    (any::<bool>(), 0.0f64..=0.5).prop_map(|(noisy, p)| if noisy { p } else { 0.0 })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Databases, and planted, noisy and non-member queries on them. From
    /// 8 profiles on, the database's rows split over the eight lanes where
    /// the CPU runs them, the `profiles % 8` left over drawn after them.
    #[test]
    fn databases_and_queries_match_the_per_bit_code(
        spectrum in spectrum(),
        profiles in 1usize..=40,
        snps in cols(),
        (total, planted) in (0usize..=7, 0usize..=7),
        noise in noise(),
        seed in any::<u64>(),
    ) {
        let cfg = DatabaseConfig { profiles, snps, spectrum };
        let db = generate_database(&cfg, seed);
        let want = per_bit::generate_database(&cfg, seed);
        prop_assert_eq!(&db.profiles, &want.profiles);
        prop_assert_eq!(&db.site_maf, &want.site_maf);
        let planted = planted.min(total);
        let qs = generate_queries(&db, total, planted, noise, seed ^ 1);
        let want = per_bit::generate_queries(&db, total, planted, noise, seed ^ 1);
        prop_assert_eq!(&qs.queries, &want.queries);
        prop_assert_eq!(&qs.truth, &want.truth);
    }

    /// Mixtures of one to every profile of the database.
    #[test]
    fn mixtures_match_the_per_bit_code(
        profiles in 1usize..=7,
        snps in cols(),
        count in 0usize..=4,
        contributors in 1usize..=7,
        seed in any::<u64>(),
    ) {
        let cfg = DatabaseConfig { profiles, snps, ..Default::default() };
        let db = generate_database(&cfg, seed);
        let contributors = contributors.min(profiles);
        let (mixes, matrix) = generate_mixtures(&db, count, contributors, seed ^ 2);
        let (want_mixes, want_matrix) = per_bit::generate_mixtures(&db, count, contributors, seed ^ 2);
        prop_assert_eq!(&matrix, &want_matrix);
        for (mix, want) in mixes.iter().zip(&want_mixes) {
            prop_assert_eq!(&mix.profile, &want.profile);
            prop_assert_eq!(&mix.contributors, &want.contributors);
        }
        prop_assert_eq!(mixes.len(), want_mixes.len());
    }

    /// Panels with blocks of every length up to 20, so both fresh block
    /// heads and in-block flips land on every width.
    #[test]
    fn panels_match_the_per_bit_code(
        spectrum in spectrum(),
        (block_len, snps) in blocks(),
        samples in cols(),
        within_block_flip in 0.0f64..=0.5,
        seed in any::<u64>(),
    ) {
        let cfg = PanelConfig { snps, samples, spectrum, block_len, within_block_flip };
        let panel = generate_panel(&cfg, seed);
        let want = per_bit::generate_panel(&cfg, seed);
        prop_assert_eq!(&panel.matrix, &want.matrix);
        prop_assert_eq!(&panel.block_of, &want.block_of);
    }

    /// Founders alone and with up to five children.
    #[test]
    fn families_match_the_per_bit_code(
        founders in 2usize..=6,
        children in 0usize..=5,
        sites in cols(),
        carrier_freq in 0.0f64..=1.0,
        seed in any::<u64>(),
    ) {
        let fam = generate_family(founders, children, sites, carrier_freq, seed);
        let want = per_bit::generate_family(founders, children, sites, carrier_freq, seed);
        prop_assert_eq!(&fam.profiles, &want.profiles);
        prop_assert_eq!(&fam.parents, &want.parents);
        prop_assert_eq!(fam.founders, want.founders);
        prop_assert_eq!(&fam.site_freq, &want.site_freq);
    }
}
