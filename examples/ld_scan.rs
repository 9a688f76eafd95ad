//! Linkage-disequilibrium scan: generate a block-structured population
//! panel, compute all pairwise LD with the high-performance CPU engine, and
//! report r² decay within and across haplotype blocks — the population-
//! genetics workload of the paper's §II-A, end to end.
//!
//! ```text
//! cargo run --release --example ld_scan
//! ```

use snp_repro::cpu::CpuEngine;
use snp_repro::popgen::ld_stats::ld_pair;
use snp_repro::popgen::population::{generate_panel, PanelConfig};
use snp_repro::popgen::FrequencySpectrum;

fn main() {
    let cfg = PanelConfig {
        snps: 512,
        samples: 4_096,
        spectrum: FrequencySpectrum::Uniform { lo: 0.1, hi: 0.5 },
        block_len: 16,
        within_block_flip: 0.03,
    };
    let panel = generate_panel(&cfg, 2024);
    println!(
        "panel: {} SNPs x {} haplotypes, {} blocks, density {:.3}",
        cfg.snps,
        cfg.samples,
        panel.block_of.last().unwrap() + 1,
        panel.matrix.density()
    );

    // The whole LD computation is one AND-popcount GEMM of the panel with
    // itself (paper Eq. 1) — here on the multithreaded BLIS CPU engine,
    // which computes the symmetric γ's upper triangle and mirrors it. The
    // rate below counts the full GEMM's word-ops.
    let engine = CpuEngine::new();
    let t0 = std::time::Instant::now();
    let gamma = engine.ld_self(&panel.matrix);
    let dt = t0.elapsed();
    let word_ops = cfg.snps * cfg.snps * panel.matrix.words_per_row();
    println!(
        "CPU popcount-GEMM: {:.1} ms ({:.2} G word-ops/s on this host)",
        dt.as_secs_f64() * 1e3,
        word_ops as f64 / dt.as_secs_f64() / 1e9
    );

    // r² as a function of SNP distance, split by same-block vs cross-block.
    let mut by_distance: Vec<(f64, usize)> = vec![(0.0, 0); 33];
    let mut cross_block = (0.0, 0usize);
    for a in 0..cfg.snps {
        for b in (a + 1)..cfg.snps.min(a + 33) {
            let ld = ld_pair(&gamma, cfg.samples, a, b);
            if panel.block_of[a] == panel.block_of[b] {
                let d = b - a;
                by_distance[d].0 += ld.r2;
                by_distance[d].1 += 1;
            } else {
                cross_block.0 += ld.r2;
                cross_block.1 += 1;
            }
        }
    }
    println!("\nmean r² by intra-block distance (LD decays with distance):");
    for d in [1usize, 2, 4, 8, 12, 15] {
        let (sum, n) = by_distance[d];
        if n > 0 {
            println!("  distance {d:>2}: r² = {:.3}  ({n} pairs)", sum / n as f64);
        }
    }
    let cross = cross_block.0 / cross_block.1.max(1) as f64;
    println!("  cross-block:  r² = {cross:.3}  ({} pairs)", cross_block.1);

    let (d1, n1) = by_distance[1];
    assert!(
        d1 / n1 as f64 > 5.0 * cross.max(1e-3),
        "adjacent same-block SNPs must show far stronger LD than cross-block pairs"
    );
    println!("\nshape verified: strong LD inside blocks, near-equilibrium across blocks.");
}
