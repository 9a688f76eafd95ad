//! Population panels for linkage-disequilibrium studies.
//!
//! LD inputs are matrices with one row per SNP site and one bit column per
//! haplotype sample (paper Fig. 2, following \[11\]). The generator supports
//! block-structured correlation: consecutive SNPs inside an LD block are
//! produced by copying the previous SNP's sample vector and flipping each
//! bit with a small recombination/mutation probability, which yields the
//! non-random association the statistic is designed to detect. Block
//! boundaries re-draw an independent SNP, so cross-block LD is near zero.

use rand::rngs::{Jump, Lanes, StdRng};
use rand::{RngExt, SeedableRng};
use snp_bitmat::BitMatrix;

use crate::freq::FrequencySpectrum;
use crate::sampler::{lane_rows_avx512, lanes_run, threshold, words, LANES};

/// Configuration of a synthetic LD panel.
#[derive(Debug, Clone, PartialEq)]
pub struct PanelConfig {
    /// Number of SNP sites (matrix rows).
    pub snps: usize,
    /// Number of haplotype samples (matrix bit columns).
    pub samples: usize,
    /// MAF spectrum for independent (block-head) sites.
    pub spectrum: FrequencySpectrum,
    /// Expected LD-block length in SNPs; `1` disables correlation.
    pub block_len: usize,
    /// Per-sample flip probability when extending a block (controls decay
    /// of r² with distance inside a block).
    pub within_block_flip: f64,
}

impl Default for PanelConfig {
    fn default() -> Self {
        PanelConfig {
            snps: 1024,
            samples: 512,
            spectrum: FrequencySpectrum::Uniform { lo: 0.05, hi: 0.5 },
            block_len: 16,
            within_block_flip: 0.05,
        }
    }
}

/// A generated LD panel: the packed SNP × sample matrix plus ground truth.
#[derive(Debug, Clone)]
pub struct Panel {
    /// `snps × samples` bit matrix; row = SNP, bit = sample.
    pub matrix: BitMatrix<u64>,
    /// Index of the block each SNP belongs to (for validating that LD decays
    /// across block boundaries).
    pub block_of: Vec<usize>,
}

/// Generates a panel deterministically from `seed`.
pub fn generate_panel(cfg: &PanelConfig, seed: u64) -> Panel {
    assert!(cfg.snps > 0 && cfg.samples > 0, "panel must be non-empty");
    assert!(cfg.block_len >= 1, "block_len must be >= 1");
    assert!((0.0..=0.5).contains(&cfg.within_block_flip));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut matrix = BitMatrix::zeros(cfg.snps, cfg.samples);
    let flip = threshold(cfg.within_block_flip);
    // Where the lanes run, they take the full blocks in groups of LANES,
    // lane `l` of a group its block `l`; the blocks left over, the short
    // last one included, follow on `rng`.
    let groups = if lanes_run() {
        cfg.snps / cfg.block_len / LANES
    } else {
        0
    };
    if groups > 0 {
        let block = Jump::ahead((cfg.block_len * cfg.samples) as u64);
        let mut rows = vec![[0u64; LANES]; matrix.words_per_row()];
        for g in 0..groups {
            // A head's MAF may take any number of draws, so the group's
            // heads are walked in order: each samples its MAF, hands the
            // state at its first bit draw to its lane, and jumps `rng` over
            // the block's `block_len · samples` bit draws to the next head.
            let mut head = [0; LANES];
            let mut lanes = Lanes::new(std::array::from_fn(|l| {
                head[l] = threshold(cfg.spectrum.sample(&mut rng));
                let lane = rng.clone();
                rng.jump(&block);
                lane
            }));
            // A head row draws at its lane's head threshold; each later row
            // is the row above XOR flips.
            let thresholds = |i, _| if i == 0 { head } else { [flip; LANES] };
            let first = g * LANES * cfg.block_len;
            let put = |i, w: usize, bits: [u64; LANES]| {
                for (l, (row, bits)) in rows[w].iter_mut().zip(bits).enumerate() {
                    *row = if i == 0 { bits } else { *row ^ bits };
                    matrix.row_mut(first + l * cfg.block_len + i)[w] = *row;
                }
            };
            lane_rows_avx512(&mut lanes, cfg.block_len, cfg.samples, thresholds, put);
        }
    }
    let flips = vec![flip; cfg.samples];
    let mut head = vec![0u64; cfg.samples];
    let mut prev = vec![0u64; matrix.words_per_row()];
    for s in groups * LANES * cfg.block_len..cfg.snps {
        if s % cfg.block_len == 0 {
            head.fill(threshold(cfg.spectrum.sample(&mut rng)));
            for (p, bits) in prev.iter_mut().zip(words(&mut rng, &head)) {
                *p = bits;
            }
        } else {
            for (p, flip) in prev.iter_mut().zip(words(&mut rng, &flips)) {
                *p ^= flip;
            }
        }
        matrix.row_mut(s).copy_from_slice(&prev);
    }
    let block_of = (0..cfg.snps).map(|s| s / cfg.block_len).collect();
    Panel { matrix, block_of }
}

/// Generates an *uncorrelated* panel (every SNP independent) — the
/// configuration used for raw throughput benchmarks where statistical
/// structure is irrelevant.
pub fn generate_independent(snps: usize, samples: usize, maf: f64, seed: u64) -> BitMatrix<u64> {
    let cfg = PanelConfig {
        snps,
        samples,
        spectrum: FrequencySpectrum::Fixed(maf),
        block_len: 1,
        within_block_flip: 0.0,
    };
    generate_panel(&cfg, seed).matrix
}

/// Fast generator of a dense random bit matrix with exact word-level
/// randomness (density ≈ 0.5) — the cheapest way to build benchmark-sized
/// inputs. Rows × cols, padding kept zero.
pub fn random_dense(rows: usize, cols: usize, seed: u64) -> BitMatrix<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let wpr = BitMatrix::<u64>::words_for_cols(cols);
    let full_words = cols / 64;
    let rem = (cols % 64) as u32;
    let mut data = vec![0u64; rows * wpr];
    for r in 0..rows {
        let base = r * wpr;
        for w in 0..full_words {
            data[base + w] = rng.random();
        }
        if rem != 0 {
            data[base + full_words] = rng.random::<u64>() & ((1u64 << rem) - 1);
        }
    }
    BitMatrix::from_words(rows, cols, wpr, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use snp_bitmat::{reference_gamma_self, CompareOp};

    #[test]
    fn panel_shape_and_padding() {
        let cfg = PanelConfig {
            snps: 100,
            samples: 130,
            ..Default::default()
        };
        let p = generate_panel(&cfg, 1);
        assert_eq!(p.matrix.rows(), 100);
        assert_eq!(p.matrix.cols(), 130);
        assert!(p.matrix.padding_is_zero());
        assert_eq!(p.block_of.len(), 100);
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = PanelConfig::default();
        let a = generate_panel(&cfg, 9).matrix;
        let b = generate_panel(&cfg, 9).matrix;
        assert_eq!(a, b);
        let c = generate_panel(&cfg, 10).matrix;
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn blocks_have_expected_length() {
        let cfg = PanelConfig {
            snps: 64,
            block_len: 8,
            ..Default::default()
        };
        let p = generate_panel(&cfg, 3);
        assert_eq!(p.block_of[0], 0);
        assert_eq!(p.block_of[7], 0);
        assert_eq!(p.block_of[8], 1);
        assert_eq!(p.block_of[63], 7);
    }

    #[test]
    fn within_block_correlation_exceeds_between_block() {
        let cfg = PanelConfig {
            snps: 200,
            samples: 2000,
            spectrum: FrequencySpectrum::Fixed(0.3),
            block_len: 10,
            within_block_flip: 0.02,
        };
        let p = generate_panel(&cfg, 5);
        let gamma = reference_gamma_self(&p.matrix, CompareOp::And);
        let n = cfg.samples as f64;
        // Average |D| for adjacent pairs inside vs across blocks.
        let mut within = (0.0, 0usize);
        let mut across = (0.0, 0usize);
        for s in 0..cfg.snps - 1 {
            let pa = gamma.get(s, s) as f64 / n;
            let pb = gamma.get(s + 1, s + 1) as f64 / n;
            let pab = gamma.get(s, s + 1) as f64 / n;
            let d = (pab - pa * pb).abs();
            if p.block_of[s] == p.block_of[s + 1] {
                within.0 += d;
                within.1 += 1;
            } else {
                across.0 += d;
                across.1 += 1;
            }
        }
        let within_mean = within.0 / within.1 as f64;
        let across_mean = across.0 / across.1 as f64;
        assert!(
            within_mean > 4.0 * across_mean,
            "within-block LD {within_mean} should dominate across-block {across_mean}"
        );
    }

    #[test]
    fn independent_density_tracks_maf() {
        let m = generate_independent(50, 2000, 0.2, 11);
        assert!((m.density() - 0.2).abs() < 0.01, "density {}", m.density());
    }

    #[test]
    fn random_dense_density_is_half_and_padding_clean() {
        let m = random_dense(64, 1000, 13);
        assert!((m.density() - 0.5).abs() < 0.01, "density {}", m.density());
        assert!(m.padding_is_zero());
        // Non-multiple-of-64 column count exercises the mask path.
        let m2 = random_dense(8, 65, 13);
        assert!(m2.padding_is_zero());
    }

    #[test]
    fn random_dense_deterministic() {
        assert_eq!(random_dense(10, 100, 42), random_dense(10, 100, 42));
    }
}
