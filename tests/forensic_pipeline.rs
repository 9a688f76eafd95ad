//! Domain-level pipeline tests: workload generators → engines → forensic /
//! population-genetics conclusions, across the CPU and every simulated GPU.

use snp_repro::bitmat::{reference_gamma, CompareOp};
use snp_repro::core::GpuEngine;
use snp_repro::cpu::CpuEngine;
use snp_repro::gpu_model::devices;
use snp_repro::popgen::forensic::{
    generate_database, generate_mixtures, generate_queries, DatabaseConfig,
};
use snp_repro::popgen::ld_stats::ld_pair;
use snp_repro::popgen::population::{generate_panel, PanelConfig};
use snp_repro::popgen::FrequencySpectrum;

fn db() -> snp_repro::popgen::Database {
    generate_database(
        &DatabaseConfig {
            profiles: 800,
            snps: 384,
            ..Default::default()
        },
        101,
    )
}

#[test]
fn identity_search_pipeline_on_all_engines() {
    let db = db();
    let queries = generate_queries(&db, 12, 10, 0.015, 7);
    let cpu_gamma = CpuEngine::new().identity_search(&queries.queries, &db.profiles);
    for (q, truth) in queries.truth.iter().enumerate() {
        if let Some(t) = truth {
            assert_eq!(cpu_gamma.argmin_in_row(q), Some(*t), "CPU: query {q}");
        }
    }
    let want = reference_gamma(&queries.queries, &db.profiles, CompareOp::Xor);
    assert_eq!(cpu_gamma.first_mismatch(&want), None, "CPU");
    for dev in devices::all_gpus() {
        let run = GpuEngine::new(dev.clone())
            .identity_search(&queries.queries, &db.profiles)
            .unwrap();
        let gamma = run.gamma.unwrap();
        assert_eq!(gamma.first_mismatch(&want), None, "{}", dev.name);
    }
}

#[test]
fn mixture_pipeline_recovers_contributors_and_excludes_most_others() {
    let db = db();
    let (mixtures, matrix) = generate_mixtures(&db, 5, 3, 31);
    let run = GpuEngine::new(devices::vega_64())
        .mixture_analysis(&db.profiles, &matrix)
        .unwrap();
    let gamma = run.gamma.unwrap();
    for (mi, mix) in mixtures.iter().enumerate() {
        for &c in &mix.contributors {
            assert_eq!(
                gamma.get(c, mi),
                0,
                "contributor {c} of mixture {mi} must score 0"
            );
        }
        let included = (0..db.profiles.rows())
            .filter(|&r| gamma.get(r, mi) == 0)
            .count();
        assert!(
            included < db.profiles.rows() / 10,
            "mixture {mi}: {included} profiles included — panel should exclude most"
        );
    }
}

#[test]
fn ld_statistics_identical_from_cpu_and_gpu_gammas() {
    let panel = generate_panel(
        &PanelConfig {
            snps: 96,
            samples: 1500,
            spectrum: FrequencySpectrum::Fixed(0.3),
            block_len: 8,
            within_block_flip: 0.02,
        },
        55,
    );
    let cpu_gamma = CpuEngine::new().ld_self(&panel.matrix);
    let gpu_gamma = GpuEngine::new(devices::titan_v())
        .ld_self(&panel.matrix)
        .unwrap()
        .gamma
        .unwrap();
    assert_eq!(cpu_gamma.first_mismatch(&gpu_gamma), None);
    let want = reference_gamma(&panel.matrix, &panel.matrix, CompareOp::And);
    assert_eq!(gpu_gamma.first_mismatch(&want), None);
    // Downstream statistics therefore agree exactly.
    let mut strong = 0;
    for a in 0..95 {
        let c = ld_pair(&cpu_gamma, 1500, a, a + 1);
        let g = ld_pair(&gpu_gamma, 1500, a, a + 1);
        assert_eq!(c.r2.to_bits(), g.r2.to_bits());
        if panel.block_of[a] == panel.block_of[a + 1] && c.r2 > 0.5 {
            strong += 1;
        }
    }
    assert!(
        strong > 40,
        "adjacent same-block pairs should mostly be in strong LD, got {strong}"
    );
}

#[test]
fn query_noise_degrades_scores_monotonically() {
    let db = db();
    let clean = generate_queries(&db, 6, 6, 0.0, 9);
    let noisy = generate_queries(&db, 6, 6, 0.05, 9);
    let e = CpuEngine::new();
    let g_clean = e.identity_search(&clean.queries, &db.profiles);
    let g_noisy = e.identity_search(&noisy.queries, &db.profiles);
    for q in 0..6 {
        let t_clean = clean.truth[q].unwrap();
        assert_eq!(
            g_clean.get(q, t_clean),
            0,
            "noiseless planted query matches exactly"
        );
        let t_noisy = noisy.truth[q].unwrap();
        let noisy_score = g_noisy.get(q, t_noisy);
        assert!(noisy_score > 0, "5% noise must perturb the profile");
        // But not enough to lose the match: the planted source still wins.
        assert_eq!(g_noisy.argmin_in_row(q), Some(t_noisy));
    }
}

#[test]
fn xor_and_andnot_are_consistent_through_the_full_stack() {
    // Inclusion–exclusion must survive the full GPU path, not just the
    // reference: |a⊕b| = |a| + |b| − 2|a∧b| and |a∧¬b| = |a| − |a∧b|.
    let db = db();
    let queries = generate_queries(&db, 6, 3, 0.02, 77);
    let dev = devices::gtx_980();
    let engine = GpuEngine::new(dev);
    let and = engine
        .compare(
            &queries.queries,
            &db.profiles,
            snp_repro::core::Algorithm::LinkageDisequilibrium,
        )
        .unwrap()
        .gamma
        .unwrap();
    let xor = engine
        .identity_search(&queries.queries, &db.profiles)
        .unwrap()
        .gamma
        .unwrap();
    let andnot = engine
        .mixture_analysis(&queries.queries, &db.profiles)
        .unwrap()
        .gamma
        .unwrap();
    for q in 0..queries.queries.rows() {
        let pa: u32 = queries.queries.row(q).iter().map(|w| w.count_ones()).sum();
        for p in 0..db.profiles.rows() {
            let pb: u32 = db.profiles.row(p).iter().map(|w| w.count_ones()).sum();
            assert_eq!(xor.get(q, p), pa + pb - 2 * and.get(q, p));
            assert_eq!(andnot.get(q, p), pa - and.get(q, p));
        }
    }
    let _ = CompareOp::ALL; // silence unused-import lint paths on feature changes
}
