//! Profiler counter reconciliation: the hardware-counter records attached
//! to kernel launches must agree with the engine's own timing accounting
//! (`Timing::busy_ns`/`validate`), the bandwidth floor, and — for one tiny
//! hand-computed kernel — exact pinned values.

use proptest::prelude::*;
use snp_bitmat::BitMatrix;
use snp_core::{group_geometry, tile_program, EngineOptions, ExecMode, GpuEngine, MixtureStrategy};
use snp_gpu_model::config::{Algorithm, ProblemShape};
use snp_gpu_model::{devices, InstrClass};
use snp_gpu_sim::host::{Gpu, KernelCost};
use snp_gpu_sim::{program_counters, simulate_core, Block, Instr, Program, Traffic};

fn gpu_by_index(i: usize) -> snp_gpu_model::DeviceSpec {
    let all = devices::all_gpus();
    all[i % all.len()].clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Per-launch profiles reconcile with the run's timing: the summed
    /// launch wall times reproduce `Timing::kernel_ns` (within per-launch
    /// rounding), every launch respects its bandwidth floor, achieved
    /// bandwidth never exceeds the device peak, and the timing passes its
    /// own phase-sum validation.
    #[test]
    fn profiles_reconcile_with_timing(
        dev_i in 0usize..3,
        m in 16usize..160,
        n in 16usize..160,
        k_words in 2usize..24,
        alg_i in 0usize..3,
    ) {
        let dev = gpu_by_index(dev_i);
        let alg = [
            Algorithm::LinkageDisequilibrium,
            Algorithm::IdentitySearch,
            Algorithm::MixtureAnalysis,
        ][alg_i];
        let engine = GpuEngine::new(dev.clone()).with_options(EngineOptions {
            mode: ExecMode::TimingOnly,
            profile: true,
            ..Default::default()
        });
        let run = engine
            .run_shape(ProblemShape { m, n, k_words }, alg)
            .unwrap();
        prop_assert!(run.timing.validate().is_ok(), "{:?}", run.timing.validate());

        let profiles = run.kernel_profiles.as_ref().expect("profiling was on");
        prop_assert_eq!(profiles.len(), run.passes);
        let total: f64 = profiles.iter().map(|p| p.time.total_ns).sum();
        // Each launch's duration is rounded to whole virtual ns on the
        // event timeline, so the sums agree within one ns per launch.
        prop_assert!(
            (total - run.timing.kernel_ns as f64).abs() <= run.passes as f64 + 1.0,
            "profiles sum {total} vs kernel_ns {}", run.timing.kernel_ns
        );
        prop_assert!(run.timing.kernel_ns <= run.timing.busy_ns());

        let peak_bw = dev.memory.effective_bandwidth_bytes_s();
        for p in profiles {
            // The launch can never beat its own bandwidth bound.
            prop_assert!(p.time.total_ns >= p.time.memory_ns);
            prop_assert!(p.time.total_ns >= p.time.compute_ns);
            prop_assert!(p.achieved_bandwidth_bytes_s() <= peak_bw * (1.0 + 1e-9));
            if p.memory_bound() {
                // Bandwidth-bound launches sit on the memory floor (plus
                // the fixed launch overhead).
                let floor = p.time.memory_ns + dev.transfer.kernel_launch_ns as f64;
                prop_assert!((p.time.total_ns - floor).abs() < 1e-6);
            }
        }
    }

    /// Static per-pipeline issue counters and measured busy cycles never
    /// exceed the wall cycles of the detailed-engine run: no FU can be
    /// busier than the clock.
    #[test]
    fn fu_busy_cycles_bounded_by_wall(
        dev_i in 0usize..3,
        k_words in 2usize..32,
        alg_i in 0usize..3,
    ) {
        let dev = gpu_by_index(dev_i);
        let alg = [
            Algorithm::LinkageDisequilibrium,
            Algorithm::IdentitySearch,
            Algorithm::MixtureAnalysis,
        ][alg_i];
        let mixture = if dev.fused_andnot {
            MixtureStrategy::Direct
        } else {
            MixtureStrategy::PreNegate
        };
        let op = snp_core::compare_op(alg, mixture);
        let shape = ProblemShape { m: 256, n: 256, k_words };
        let cfg = snp_core::config_for(&dev, alg, shape);
        let geo = group_geometry(&dev, &cfg);
        let prog = tile_program(&dev, &cfg, op, k_words);
        let counters = program_counters(&dev, &prog);
        let det = simulate_core(&dev, &prog, geo.groups_per_core, 500_000_000).unwrap();

        let per_cluster_groups = cfg.groups_per_cluster as u64;
        for (p, &issue) in counters.issue_cycles_per_pipeline.iter().enumerate() {
            // One cluster serves `groups_per_cluster` groups' issue slots
            // serially on each pipeline; that work can't take less wall
            // time than it occupies the pipeline.
            prop_assert!(
                issue * per_cluster_groups <= det.cycles,
                "pipeline {p}: {} issue cycles/cluster vs {} wall",
                issue * per_cluster_groups,
                det.cycles
            );
            prop_assert!(det.pipeline_busy[p] <= det.cycles * dev.n_clusters as u64);
        }
        // The SNP tile kernel stages A conflict-free (DESIGN.md §4).
        prop_assert_eq!(counters.bank_conflict_replays, 0);
    }
}

/// A functional run with profiling enabled carries one profile per pass and
/// matches the timing-only accounting invariants.
#[test]
fn full_run_collects_profiles() {
    let dev = devices::gtx_980();
    let panel = BitMatrix::<u64>::from_fn(40, 512, |r, c| (r * 13 + c * 5) % 7 == 0);
    let run = GpuEngine::new(dev)
        .with_options(EngineOptions {
            profile: true,
            ..Default::default()
        })
        .ld_self(&panel)
        .unwrap();
    assert!(run.gamma.is_some());
    let profiles = run.kernel_profiles.expect("profiling was on");
    assert_eq!(profiles.len(), run.passes);
    assert!(profiles.iter().all(|p| p.time.total_ns > 0.0));
}

/// Profiling stays off (and free) by default.
#[test]
fn profiles_absent_by_default() {
    let dev = devices::titan_v();
    let run = GpuEngine::new(dev)
        .run_shape(
            ProblemShape {
                m: 64,
                n: 64,
                k_words: 4,
            },
            Algorithm::LinkageDisequilibrium,
        )
        .unwrap();
    assert!(run.kernel_profiles.is_none());
}

/// Pinned values for one hand-computed tiny kernel on the GTX 980
/// (N_T = 32; popc 8 lanes → 4 issue cycles, add/logic 32 lanes → 1,
/// lsu 8 lanes → 4):
///
/// ```text
/// once:       load_global            → lsu 4
/// loop × 10:  load_shared (2-way)    → lsu 4 × 2 = 8 per trip
///             popc                   → popc 4 per trip
///             int_add                → add 1 per trip
/// ```
#[test]
fn pinned_counters_for_hand_computed_kernel() {
    let dev = devices::gtx_980();
    let prog = Program::new(vec![
        Block::once(vec![Instr::load_global(0, &[])]),
        Block::looped(
            10,
            vec![
                Instr::load_shared(1, &[0], 2),
                Instr::arith(InstrClass::Popc, 2, &[1]),
                Instr::arith(InstrClass::IntAdd, 3, &[3, 2]),
            ],
        ),
    ]);

    let c = program_counters(&dev, &prog);
    assert_eq!(c.instrs_per_group, 31); // 1 + 10 × 3
    assert_eq!(c.bank_conflict_replays, 10); // (2 − 1) replay × 10 trips
                                             // Pipelines on the GTX 980 are [add, logic, popc, lsu].
    assert_eq!(c.issue_cycles_per_pipeline, vec![10, 0, 40, 84]);

    // The same program through the host API: the event's profile carries
    // the detailed engine's measured counters.
    let gpu = Gpu::new(dev.clone());
    let q = gpu.create_queue();
    let out = gpu.create_virtual_buffer(1024).unwrap();
    let cost = KernelCost::Detailed {
        program: prog,
        groups_per_core: 1,
        active_cores: 16,
        traffic: Traffic {
            read_bytes: 1 << 20,
            write_bytes: 4096,
        },
    };
    let ev = gpu
        .enqueue_kernel_timed_on(q, &cost, &[], out, &[])
        .unwrap();
    gpu.finish_all();
    let p = gpu.kernel_profile(ev).expect("kernel event has a profile");
    assert_eq!(p.total_instrs, Some(31));
    assert_eq!(p.groups_per_core, Some(1));
    assert_eq!(p.active_cores, 16);
    // One resident group occupies one cluster; measured busy equals the
    // static issue counters exactly.
    assert_eq!(p.pipeline_busy, Some(vec![10, 0, 40, 84]));
    assert_eq!(p.traffic.total(), (1 << 20) + 4096);
    // Wall cycles cover at least the busiest pipeline.
    assert!(p.core_cycles >= 84.0);
    assert!(p.time.total_ns >= p.time.memory_ns);
}
