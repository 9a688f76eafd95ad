//! Cross-crate agreement: the scalar reference, the BLIS CPU engine and the
//! simulated-GPU framework must produce identical `γ` matrices for every
//! algorithm on every device.

use snp_repro::bitmat::{reference_gamma, CompareOp};
use snp_repro::core::{Algorithm, EngineOptions, ExecMode, GpuEngine, MixtureStrategy};
use snp_repro::cpu::CpuEngine;
use snp_repro::gpu_model::devices;
use snp_repro::popgen::{generate_independent, random_dense};

#[test]
fn four_implementations_agree_on_every_operator() {
    let a = random_dense(60, 900, 11);
    let b = random_dense(90, 900, 12);
    let cpu = CpuEngine::new();
    for op in CompareOp::ALL {
        let reference = reference_gamma(&a, &b, op);
        let blis = cpu.gamma(&a, &b, op);
        assert_eq!(
            blis.first_mismatch(&reference),
            None,
            "CPU BLIS vs reference, op {op}"
        );
    }
}

#[test]
fn gpu_framework_agrees_on_every_device_and_algorithm() {
    let a = random_dense(48, 700, 13);
    let b = random_dense(100, 700, 14);
    for dev in devices::all_gpus() {
        let engine = GpuEngine::new(dev.clone());
        for (alg, op) in [
            (Algorithm::LinkageDisequilibrium, CompareOp::And),
            (Algorithm::IdentitySearch, CompareOp::Xor),
            (Algorithm::MixtureAnalysis, CompareOp::AndNot),
        ] {
            let run = engine.compare(&a, &b, alg).unwrap();
            let want = reference_gamma(&a, &b, op);
            assert_eq!(
                run.gamma.unwrap().first_mismatch(&want),
                None,
                "{} / {alg:?}",
                dev.name
            );
        }
    }
}

#[test]
fn gpu_results_identical_across_devices() {
    // Portability: same input, same answer, regardless of the device and
    // its (different) configuration header.
    let panel = generate_independent(80, 1200, 0.25, 15);
    let mut runs = devices::all_gpus()
        .into_iter()
        .map(|d| GpuEngine::new(d).ld_self(&panel).unwrap().gamma.unwrap());
    let first = runs.next().unwrap();
    for other in runs {
        assert_eq!(first.first_mismatch(&other), None);
    }
}

#[test]
fn mixture_strategies_and_engines_agree() {
    let refs = generate_independent(40, 640, 0.3, 16);
    let mixes = generate_independent(12, 640, 0.45, 17);
    let cpu = CpuEngine::new();
    let cpu_direct = cpu.mixture_analysis(&refs, &mixes, false);
    let cpu_pre = cpu.mixture_analysis(&refs, &mixes, true);
    assert_eq!(cpu_direct.first_mismatch(&cpu_pre), None);
    let want = reference_gamma(&refs, &mixes, CompareOp::AndNot);
    assert_eq!(cpu_direct.first_mismatch(&want), None);
    for dev in devices::all_gpus() {
        for strategy in [MixtureStrategy::Direct, MixtureStrategy::PreNegate] {
            let run = GpuEngine::new(dev.clone())
                .with_options(EngineOptions {
                    mode: ExecMode::Full,
                    double_buffer: true,
                    mixture: strategy,
                    ..Default::default()
                })
                .mixture_analysis(&refs, &mixes)
                .unwrap();
            assert_eq!(
                run.gamma.unwrap().first_mismatch(&want),
                None,
                "{} {strategy:?}",
                dev.name
            );
        }
    }
}

#[test]
fn cpu_and_gpu_agree_on_padded_awkward_shapes() {
    // Shapes that hit every edge path: non-multiple rows, ragged words.
    let cpu = CpuEngine::new();
    let dev = devices::gtx_980();
    for (m, n, bits) in [
        (1usize, 1usize, 65usize),
        (33, 7, 127),
        (5, 129, 64),
        (17, 31, 1000),
    ] {
        let a = random_dense(m, bits, (m * n) as u64);
        let b = random_dense(n, bits, (m + n) as u64);
        let want = reference_gamma(&a, &b, CompareOp::Xor);
        assert_eq!(
            cpu.gamma(&a, &b, CompareOp::Xor).first_mismatch(&want),
            None
        );
        let run = GpuEngine::new(dev.clone()).identity_search(&a, &b).unwrap();
        assert_eq!(
            run.gamma.unwrap().first_mismatch(&want),
            None,
            "shape {m}x{n}x{bits}"
        );
    }
}
