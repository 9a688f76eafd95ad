//! Property tests for the static verifier: pipelines with randomly dropped
//! ordering edges must be flagged (one RAW hazard per dropped edge), the
//! repaired pipeline must verify clean, and the engine's seeded-fault hook
//! must turn into a `SimError::Hazard` at every problem scale.

use proptest::prelude::*;
use snp_repro::core::{Algorithm, EngineOptions, ExecMode, GpuEngine, MixtureStrategy};
use snp_repro::gpu_model::config::ProblemShape;
use snp_repro::gpu_model::devices;
use snp_repro::gpu_sim::macro_engine::Traffic;
use snp_repro::gpu_sim::{Gpu, KernelCost, SimError};
use snp_repro::verify::{verify_command_log, Report, Severity};

fn cost() -> KernelCost {
    KernelCost {
        core_cycles: 50_000.0,
        active_cores: 4,
        traffic: Traffic::default(),
    }
}

/// Builds the canonical transfer/compute pipeline: per stage `i`, a write of
/// `b_i` on the transfer queue, a kernel reading `b_i` and writing `c_i` on
/// the compute queue, and a readback of `c_i` on the transfer queue. The
/// kernel's wait on the write is dropped exactly where `drop_edge[i]` says.
fn build_pipeline(g: &Gpu, drop_edge: &[bool]) {
    let q_xfer = g.create_queue();
    let q_comp = g.create_queue();
    for &dropped in drop_edge {
        let b = g.create_virtual_buffer(256).unwrap();
        let c = g.create_virtual_buffer(256).unwrap();
        let ev_w = g.enqueue_virtual_write(q_xfer, b, 0, 256, &[]).unwrap();
        let deps: Vec<_> = if dropped { vec![] } else { vec![ev_w] };
        let ev_k = g
            .enqueue_kernel_timed_on(q_comp, &cost(), &[b], c, &deps)
            .unwrap();
        let ev_r = g.enqueue_virtual_read(q_xfer, c, 0, 256, &[ev_k]).unwrap();
        let _ = g.event_profile(ev_r).unwrap();
        if dropped {
            // Keep the orphaned write out of the dead-event lint so the
            // only finding attributable to the drop is the RAW hazard.
            let _ = g.event_profile(ev_w).unwrap();
        }
    }
}

fn severity_count(report: &Report, sev: Severity) -> usize {
    report.count(sev)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every dropped write→kernel edge is caught as exactly one RAW hazard,
    /// and nothing else in the pipeline is flagged as an error.
    #[test]
    fn dropped_edges_are_each_flagged_as_raw(
        drop_edge in prop::collection::vec(any::<bool>(), 1..12),
        dev_idx in 0usize..3,
    ) {
        let g = Gpu::new(devices::all_gpus().swap_remove(dev_idx));
        build_pipeline(&g, &drop_edge);
        let report = verify_command_log(&g.command_log());
        let dropped = drop_edge.iter().filter(|&&d| d).count();
        prop_assert_eq!(
            report.with_code("V001-RAW").count(),
            dropped,
            "one RAW per dropped edge in {}",
            report.render_text("pipeline")
        );
        prop_assert_eq!(severity_count(&report, Severity::Error), dropped);
    }

    /// The repaired stream — same shape, every edge restored — is clean:
    /// no errors, no warnings (infos such as overlap stats are fine).
    #[test]
    fn repaired_pipeline_verifies_clean(stages in 1usize..12, dev_idx in 0usize..3) {
        let g = Gpu::new(devices::all_gpus().swap_remove(dev_idx));
        build_pipeline(&g, &vec![false; stages]);
        let report = verify_command_log(&g.command_log());
        prop_assert!(
            !report.has_blocking(),
            "clean pipeline must not block: {}",
            report.render_text("pipeline")
        );
    }

    /// Engine-level mutation: the seeded fault (kernel's wait on its B-tile
    /// upload dropped) always surfaces as a `SimError::Hazard`, across
    /// single- and multi-chunk plans; the unfaulted engine always passes.
    #[test]
    fn seeded_engine_fault_is_always_caught(
        n_chunks in 1usize..5,
        alg_idx in 0usize..3,
    ) {
        let mut dev = devices::gtx_980();
        dev.name = "GTX tiny".into();
        dev.max_alloc_bytes = 1 << 17;
        dev.global_mem_bytes = 1 << 20;
        let alg = [
            Algorithm::LinkageDisequilibrium,
            Algorithm::IdentitySearch,
            Algorithm::MixtureAnalysis,
        ][alg_idx];
        let shape = ProblemShape { m: 8, n: n_chunks * 3072, k_words: 10 };
        let options = EngineOptions {
            mode: ExecMode::TimingOnly,
            double_buffer: true,
            mixture: MixtureStrategy::Direct,
            verify: true,
            ..Default::default()
        };
        let clean = GpuEngine::new(dev.clone())
            .with_options(options)
            .run_shape(shape, alg)
            .unwrap();
        let report = clean.verify_report.expect("verification was on");
        prop_assert!(!report.has_blocking(), "{}", report.render_text("engine"));

        let faulted = GpuEngine::new(dev)
            .with_options(options)
            .with_fault_plan(snp_repro::core::FaultPlan::new(
                0,
                snp_repro::core::FaultProfile {
                    drop_kernel_b_dep: true,
                    ..snp_repro::core::FaultProfile::none()
                },
            ))
            .run_shape(shape, alg);
        match faulted {
            Err(snp_repro::core::EngineError::Device(SimError::Hazard(text))) => {
                prop_assert!(text.contains("V001-RAW"), "unexpected hazard: {text}");
            }
            other => prop_assert!(false, "expected a hazard, got {other:?}"),
        }
    }
}
