//! Property-based cross-engine tests: random problems through the whole
//! stack (reference / CPU BLIS / simulated GPUs) must agree, and
//! model-level invariants must hold for randomized device parameters.

use proptest::prelude::*;
use snp_repro::bitmat::{reference_gamma, BitMatrix, CompareOp};
use snp_repro::core::{Algorithm, GpuEngine};
use snp_repro::cpu::CpuEngine;
use snp_repro::gpu_model::config::{derive_config, McRule, ProblemShape};
use snp_repro::gpu_model::devices;

fn bitmat_pair(
    max_rows: usize,
    max_cols: usize,
) -> impl Strategy<Value = (BitMatrix<u64>, BitMatrix<u64>)> {
    (1..=max_rows, 1..=max_rows, 1..=max_cols).prop_flat_map(|(ra, rb, c)| {
        let gen = move |r: usize| {
            prop::collection::vec(prop::collection::vec(any::<bool>(), c), r)
                .prop_map(move |rows| BitMatrix::from_bool_rows(&rows))
        };
        (gen(ra), gen(rb))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Reference == CPU BLIS for arbitrary inputs and operators.
    #[test]
    fn host_engines_agree(
        (a, b) in bitmat_pair(20, 260),
        op_idx in 0usize..3,
    ) {
        let op = CompareOp::ALL[op_idx];
        let want = reference_gamma(&a, &b, op);
        let blis = CpuEngine::new().gamma(&a, &b, op);
        prop_assert_eq!(blis.first_mismatch(&want), None);
    }

    /// The full GPU path agrees with the reference on a random device pick.
    #[test]
    fn gpu_path_agrees(
        (a, b) in bitmat_pair(16, 200),
        dev_idx in 0usize..3,
        alg_idx in 0usize..3,
    ) {
        let dev = devices::all_gpus().swap_remove(dev_idx);
        let alg = [
            Algorithm::LinkageDisequilibrium,
            Algorithm::IdentitySearch,
            Algorithm::MixtureAnalysis,
        ][alg_idx];
        let op = [CompareOp::And, CompareOp::Xor, CompareOp::AndNot][alg_idx];
        let run = GpuEngine::new(dev).compare(&a, &b, alg).unwrap();
        let want = reference_gamma(&a, &b, op);
        prop_assert_eq!(run.gamma.unwrap().first_mismatch(&want), None);
    }

    /// The analytical configuration model produces valid configurations for
    /// randomized plausible hardware.
    #[test]
    fn config_model_valid_for_random_hardware(
        popc_lanes_log in 2u32..6,   // 4..32 lanes
        l_fn in 2u32..9,
        shared_kib in 3u32..9,       // 8..256 KiB via 2^k
        cores in 1u32..97,
        m in 64usize..40_000,
        n in 64usize..40_000,
        k in 1usize..4_000,
    ) {
        let mut dev = devices::gtx_980();
        dev.name = "randomized".into();
        dev.l_fn = l_fn;
        dev.n_cores = cores;
        dev.shared_mem_bytes = (1 << shared_kib) * 1024;
        dev.shared_mem_reserved_bytes = 0;
        for p in &mut dev.pipelines {
            if p.name == "popc" {
                p.lanes = 1 << popc_lanes_log;
            }
        }
        let cfg = derive_config(&dev, ProblemShape { m, n, k_words: k }, McRule::Banks);
        let viol = cfg.violations(&dev);
        prop_assert!(viol.is_empty(), "{:?} for {:?}", viol, cfg);
        prop_assert!(cfg.cores() <= dev.n_cores);
        prop_assert_eq!(cfg.k_c, dev.shared_mem_bytes as usize / (4 * 32));
    }

    /// Timing monotonicity: more work never takes less modeled time.
    #[test]
    fn end_to_end_monotone_in_problem_size(rows in 16usize..128) {
        use snp_repro::core::{EngineOptions, ExecMode, MixtureStrategy};
        let opts = EngineOptions {
            mode: ExecMode::TimingOnly,
            double_buffer: true,
            mixture: MixtureStrategy::Direct,
            ..Default::default()
        };
        let dev = devices::titan_v();
        let small = BitMatrix::<u64>::zeros(rows, 4096);
        let large = BitMatrix::<u64>::zeros(rows * 2, 4096);
        let t_small = GpuEngine::new(dev.clone()).with_options(opts).ld_self(&small).unwrap();
        let t_large = GpuEngine::new(dev).with_options(opts).ld_self(&large).unwrap();
        prop_assert!(t_large.timing.end_to_end_ns >= t_small.timing.end_to_end_ns);
    }
}
