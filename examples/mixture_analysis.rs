//! DNA mixture analysis: identify which reference profiles contributed to
//! multi-person mixtures (paper §II-C), comparing the direct AND-NOT kernel
//! with the pre-negated-database strategy and showing why the choice matters
//! on Vega-class hardware (Fig. 9).
//!
//! ```text
//! cargo run --release --example mixture_analysis
//! ```

use snp_repro::core::{EngineOptions, ExecMode, GpuEngine, MixtureStrategy};
use snp_repro::gpu_model::devices;
use snp_repro::popgen::forensic::{generate_database, generate_mixtures, DatabaseConfig};
use snp_trace::summary::fmt_sig3;

fn main() {
    let db = generate_database(
        &DatabaseConfig {
            profiles: 5_000,
            snps: 768,
            ..Default::default()
        },
        7,
    );
    let (mixtures, mixture_matrix) = generate_mixtures(&db, 8, 3, 21);
    println!(
        "{} reference profiles x {} SNPs; {} mixtures of 3 contributors each",
        db.profiles.rows(),
        db.profiles.cols(),
        mixtures.len()
    );

    // Run both strategies on a Vega 64, where they differ most.
    let dev = devices::vega_64();
    let mut results = Vec::new();
    for strategy in [MixtureStrategy::Direct, MixtureStrategy::PreNegate] {
        let engine = GpuEngine::new(dev.clone()).with_options(EngineOptions {
            mode: ExecMode::Full,
            double_buffer: true,
            mixture: strategy,
            ..Default::default()
        });
        let run = engine
            .mixture_analysis(&db.profiles, &mixture_matrix)
            .expect("mixture");
        println!(
            "\nstrategy {:?}: kernel {:.2} ms ({} G word-ops/s modeled on {})",
            strategy,
            run.timing.kernel_ns as f64 / 1e6,
            fmt_sig3(run.kernel_word_ops_per_sec / 1e9),
            dev.name
        );
        results.push(run);
    }
    let direct = results[0].gamma.take().unwrap();
    let pre = results[1].gamma.take().unwrap();
    assert_eq!(
        direct.first_mismatch(&pre),
        None,
        "strategies must agree bit-exactly"
    );
    assert!(
        results[1].timing.kernel_ns < results[0].timing.kernel_ns,
        "pre-negation must be faster on Vega (no fused AND-NOT)"
    );

    // γ[r][m] = popcount(r AND NOT mixture) == 0  <=>  r is consistent with
    // being a contributor: every one of its minor alleles appears in the mix.
    println!("\ncontributor recovery (γ = 0 test):");
    let mut false_positives = 0usize;
    for (mi, mix) in mixtures.iter().enumerate() {
        let mut found: Vec<usize> = (0..db.profiles.rows())
            .filter(|&r| direct.get(r, mi) == 0)
            .collect();
        found.sort_unstable();
        let mut planted = mix.contributors.clone();
        planted.sort_unstable();
        let extras = found.iter().filter(|r| !planted.contains(r)).count();
        false_positives += extras;
        assert!(
            planted.iter().all(|c| found.contains(c)),
            "mixture {mi}: contributor missed"
        );
        println!(
            "  mixture {mi}: contributors {planted:?} all recovered; {extras} coincidental inclusions"
        );
    }
    println!(
        "\nall 24 planted contributors recovered; {false_positives} coincidental inclusions across {} x {} tests",
        db.profiles.rows(),
        mixtures.len()
    );
    println!("(coincidental inclusion probability falls geometrically with SNP count — the");
    println!("paper's case for panels of hundreds to thousands of SNPs.)");
}
