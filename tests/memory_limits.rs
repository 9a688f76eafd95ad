//! Memory-limit behaviour across the stack: allocation caps, pass planning,
//! virtual (timing-only) vs full execution equivalence, and double-buffering
//! timing properties.

use snp_repro::bitmat::{reference_gamma, BitMatrix, CompareOp};
use snp_repro::core::{
    plan_passes, Algorithm, EngineOptions, ExecMode, GpuEngine, MixtureStrategy,
};
use snp_repro::gpu_model::devices;
use snp_repro::gpu_model::presets::preset_for;
use snp_repro::gpu_sim::{Gpu, SimError};
use snp_repro::popgen::random_dense;

fn timing_only(double_buffer: bool) -> EngineOptions {
    EngineOptions {
        mode: ExecMode::TimingOnly,
        double_buffer,
        mixture: MixtureStrategy::Direct,
        ..Default::default()
    }
}

#[test]
fn allocation_caps_enforced_per_device() {
    for dev in devices::all_gpus() {
        let gpu = Gpu::new(dev.clone());
        let over = (dev.max_alloc_bytes / 4 + 1) as usize;
        assert!(
            matches!(gpu.create_buffer(over), Err(SimError::AllocTooLarge { .. })),
            "{}",
            dev.name
        );
        assert!(
            matches!(
                gpu.create_virtual_buffer(over),
                Err(SimError::AllocTooLarge { .. })
            ),
            "{}",
            dev.name
        );
    }
}

#[test]
fn ndis_scale_pass_counts_order_by_memory_size() {
    let passes = |dev: &snp_repro::gpu_model::DeviceSpec| {
        let cfg = preset_for(dev, Algorithm::IdentitySearch).unwrap();
        plan_passes(dev, &cfg, 32, 20_971_520, 32, 0, true)
            .unwrap()
            .passes()
    };
    let gtx = passes(&devices::gtx_980());
    let titan = passes(&devices::titan_v());
    let vega = passes(&devices::vega_64());
    assert!(
        gtx > titan,
        "GTX 980 ({gtx}) must chunk more than Titan V ({titan})"
    );
    assert!(gtx > 1, "the 0.983 GiB limit must force chunking");
    assert!(
        vega <= gtx,
        "Vega 64 has more usable memory than the GTX 980"
    );
}

#[test]
fn chunked_execution_still_bit_exact() {
    // Shrink a device until everything must be chunked, then verify.
    let mut dev = devices::titan_v();
    dev.name = "Titan mini".into();
    dev.max_alloc_bytes = 96 * 1024;
    dev.global_mem_bytes = 1 << 20;
    let a = random_dense(40, 800, 1);
    let b = random_dense(700, 800, 2);
    let run = GpuEngine::new(dev).identity_search(&a, &b).unwrap();
    assert!(run.passes > 1);
    let want = reference_gamma(&a, &b, CompareOp::Xor);
    let cpu = snp_repro::cpu::CpuEngine::new().identity_search(&a, &b);
    assert_eq!(cpu.first_mismatch(&want), None);
    assert_eq!(run.gamma.unwrap().first_mismatch(&want), None);
}

#[test]
fn impossible_problems_error_cleanly() {
    let dev = devices::gtx_980();
    let cfg = preset_for(&dev, Algorithm::IdentitySearch).unwrap();
    // One 32-row A tile bigger than the max allocation: unplannable.
    let k = (dev.max_alloc_bytes / 4 / 32 + 1) as usize;
    let err = plan_passes(&dev, &cfg, 32, 1000, k, 0, true).unwrap_err();
    assert!(err.to_string().contains("cannot plan"));
}

#[test]
fn virtual_and_full_runs_have_identical_timelines() {
    let a = random_dense(48, 3000, 3);
    let b = random_dense(512, 3000, 4);
    for dev in devices::all_gpus() {
        let full = GpuEngine::new(dev.clone()).identity_search(&a, &b).unwrap();
        let timed = GpuEngine::new(dev.clone())
            .with_options(timing_only(true))
            .identity_search(&a, &b)
            .unwrap();
        assert_eq!(full.timing, timed.timing, "{}", dev.name);
        assert_eq!(full.passes, timed.passes);
        assert_eq!(full.word_ops, timed.word_ops);
    }
}

#[test]
fn double_buffering_never_hurts_and_helps_when_chunked() {
    let queries = BitMatrix::<u64>::zeros(32, 1024);
    let database = BitMatrix::<u64>::zeros(20_971_520, 1024);
    for dev in devices::all_gpus() {
        let on = GpuEngine::new(dev.clone())
            .with_options(timing_only(true))
            .identity_search(&queries, &database)
            .unwrap();
        let off = GpuEngine::new(dev.clone())
            .with_options(timing_only(false))
            .identity_search(&queries, &database)
            .unwrap();
        assert!(
            on.timing.end_to_end_ns <= off.timing.end_to_end_ns,
            "{}: double buffering must not slow the pipeline",
            dev.name
        );
    }
}

#[test]
fn end_to_end_time_decomposition_is_sane() {
    let a = random_dense(64, 2048, 5);
    let run = GpuEngine::new(devices::gtx_980()).ld_self(&a).unwrap();
    let t = &run.timing;
    assert!(t.end_to_end_ns >= t.init_ns);
    assert!(
        t.end_to_end_ns >= t.kernel_ns,
        "kernels are inside the end-to-end window"
    );
    // Serial lower bound can exceed end-to-end only through overlap; here
    // everything is small, so the sum should be close to the total.
    let serial = t.init_ns + t.pack_ns + t.kernel_ns + t.transfer_in_ns + t.transfer_out_ns;
    assert!(
        serial >= t.end_to_end_ns - 1_000,
        "components must cover the timeline"
    );
}
