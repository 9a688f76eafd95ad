//! Timing-engine cross-validation: the static critical-path model must
//! agree with the cycle-stepped detailed engine on the *actual SNP kernel
//! programs* the framework emits — not just on microbenchmark loops. This
//! is the evidence that the static numbers behind Figs. 5–9 reflect the
//! modeled microarchitecture rather than an unrelated formula.

use snp_repro::bitmat::CompareOp;
use snp_repro::core::{config_for, group_geometry, tile_program, Algorithm};
use snp_repro::gpu_model::config::ProblemShape;
use snp_repro::gpu_model::devices;
use snp_repro::gpu_sim::{critical_path, simulate_core};

fn agreement_for(dev: &snp_repro::gpu_model::DeviceSpec, op: CompareOp, k_words: usize) -> f64 {
    let cfg = config_for(
        dev,
        Algorithm::LinkageDisequilibrium,
        ProblemShape {
            m: 4096,
            n: 4096,
            k_words,
        },
    );
    let prog = tile_program(dev, &cfg, op, k_words);
    let groups = group_geometry(dev, &cfg).groups_per_core;
    let detailed = simulate_core(dev, &prog, groups, 500_000_000)
        .unwrap()
        .cycles as f64;
    let predicted = critical_path(dev, &prog).predicted_core_cycles(dev.n_clusters, groups);
    (predicted - detailed).abs() / detailed
}

#[test]
fn macro_engine_matches_detailed_on_kernel_programs() {
    for dev in devices::all_gpus() {
        for op in CompareOp::ALL {
            let rel = agreement_for(&dev, op, 64);
            assert!(
                rel < 0.10,
                "{} / {op}: static vs detailed relative error {rel:.3}",
                dev.name
            );
        }
    }
}

#[test]
fn agreement_improves_with_longer_k() {
    // Prologue/epilogue modeling differences wash out as the k-loop
    // dominates; the steady state must converge tightly.
    let dev = devices::titan_v();
    let short = agreement_for(&dev, CompareOp::And, 16);
    let long = agreement_for(&dev, CompareOp::And, 256);
    assert!(long < 0.05, "steady-state error {long:.3} too large");
    assert!(long <= short + 0.01, "short {short:.3} vs long {long:.3}");
}

#[test]
fn detailed_engine_confirms_fig9_instruction_mix_effect() {
    // The AND vs AND-NOT gap measured by the *detailed* engine (not the
    // static model that produced Fig. 9) shows the same mechanism.
    let vega = devices::vega_64();
    let cfg = config_for(
        &vega,
        Algorithm::MixtureAnalysis,
        ProblemShape {
            m: 4096,
            n: 4096,
            k_words: 64,
        },
    );
    let groups = group_geometry(&vega, &cfg).groups_per_core;
    let t_and = simulate_core(
        &vega,
        &tile_program(&vega, &cfg, CompareOp::And, 64),
        groups,
        500_000_000,
    )
    .unwrap()
    .cycles as f64;
    let t_andnot = simulate_core(
        &vega,
        &tile_program(&vega, &cfg, CompareOp::AndNot, 64),
        groups,
        500_000_000,
    )
    .unwrap()
    .cycles as f64;
    let ratio = t_and / t_andnot;
    assert!(
        (0.62..=0.72).contains(&ratio),
        "Vega AND should run ~2/3 the time of AND-NOT, got {ratio:.3}"
    );
    // And the NVIDIA parts must show no gap at all.
    for dev in [devices::gtx_980(), devices::titan_v()] {
        let cfg = config_for(
            &dev,
            Algorithm::MixtureAnalysis,
            ProblemShape {
                m: 4096,
                n: 4096,
                k_words: 64,
            },
        );
        let groups = group_geometry(&dev, &cfg).groups_per_core;
        let a = simulate_core(
            &dev,
            &tile_program(&dev, &cfg, CompareOp::And, 64),
            groups,
            500_000_000,
        )
        .unwrap()
        .cycles;
        let an = simulate_core(
            &dev,
            &tile_program(&dev, &cfg, CompareOp::AndNot, 64),
            groups,
            500_000_000,
        )
        .unwrap()
        .cycles;
        assert_eq!(a, an, "{}: fused AND-NOT must be cycle-identical", dev.name);
    }
}
