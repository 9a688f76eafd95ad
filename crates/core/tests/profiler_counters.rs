//! Profiler counter reconciliation: the global-memory bytes a run's
//! kernels were charged for must agree with the engine's own timing
//! accounting (`Timing::busy_ns`/`validate`) and the bandwidth floor, and —
//! for one tiny hand-computed kernel — the static counters take exact
//! pinned values.

use proptest::prelude::*;
use snp_bitmat::BitMatrix;
use snp_core::{group_geometry, tile_program, EngineOptions, ExecMode, GpuEngine, MixtureStrategy};
use snp_gpu_model::config::{Algorithm, ProblemShape};
use snp_gpu_model::{devices, InstrClass};
use snp_gpu_sim::{program_counters, simulate_core, Block, Instr, Program};

fn gpu_by_index(i: usize) -> snp_gpu_model::DeviceSpec {
    let all = devices::all_gpus();
    all[i % all.len()].clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The run's kernel bytes reconcile with its timing: they cover every
    /// γ cell written once and every operand word read at least once, the
    /// kernel time covers their bandwidth floor plus one launch overhead
    /// per pass (so achieved bandwidth never exceeds the device peak), and
    /// the timing passes its own phase-sum validation.
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
            ..Default::default()
        });
        let run = engine
            .run_shape(ProblemShape { m, n, k_words }, alg)
            .unwrap();
        prop_assert!(run.timing.validate().is_ok(), "{:?}", run.timing.validate());
        prop_assert!(run.timing.kernel_ns <= run.timing.busy_ns());

        let (m, n, k) = (m as u64, n as u64, k_words as u64);
        prop_assert!(run.kernel_bytes >= m * n * 4 + (m + n) * k * 4, "{}", run.kernel_bytes);
        // Each launch is priced at max(compute, memory) plus the launch
        // constant, rounded up to whole virtual ns.
        let peak_bw = dev.memory.effective_bandwidth_bytes_s();
        let floor_ns = run.kernel_bytes as f64 / peak_bw * 1e9
            + run.passes as f64 * dev.transfer.kernel_launch_ns as f64;
        prop_assert!(
            run.timing.kernel_ns as f64 >= floor_ns * (1.0 - 1e-9),
            "kernel_ns {} below its bandwidth floor {floor_ns}", run.timing.kernel_ns
        );
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
        let mixture = MixtureStrategy::for_device(&dev);
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

/// A functional run counts the same kernel bytes as the timing-only run of
/// the same shape: both issue the same command stream.
#[test]
fn full_and_timing_only_runs_count_the_same_kernel_bytes() {
    let dev = devices::gtx_980();
    let panel = BitMatrix::<u64>::from_fn(40, 512, |r, c| (r * 13 + c * 5) % 7 == 0);
    let run = |mode| {
        GpuEngine::new(dev.clone())
            .with_options(EngineOptions {
                mode,
                ..Default::default()
            })
            .ld_self(&panel)
            .unwrap()
    };
    let (full, timing) = (run(ExecMode::Full), run(ExecMode::TimingOnly));
    assert!(full.gamma.is_some());
    assert!(full.kernel_bytes > 0);
    assert_eq!(full.kernel_bytes, timing.kernel_bytes);
    assert_eq!(full.timing, timing.timing);
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

    // The same program on the detailed engine: its measured counters.
    let det = simulate_core(&dev, &prog, 1, 500_000_000).unwrap();
    assert_eq!(det.total_instrs, 31);
    // One resident group occupies one cluster; measured busy equals the
    // static issue counters exactly.
    assert_eq!(det.pipeline_busy, vec![10, 0, 40, 84]);
    // Wall cycles cover at least the busiest pipeline.
    assert!(det.cycles >= 84);
}
