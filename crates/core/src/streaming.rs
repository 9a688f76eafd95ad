//! Streaming top-k identity search.
//!
//! Fig. 8's end-to-end time is dominated by reading the full `γ` matrix
//! back to the host (32 × 20.97 M × 4 B ≈ 2.7 GB) — but a forensic search
//! only needs the best few candidates per query. The engine's top-k sink
//! ([`GpuEngine::identity_search_topk`](crate::GpuEngine::identity_search_topk))
//! adds the natural production refinement: after each comparison pass, a
//! small device-side *reduction kernel* scans the pass's `γ` chunk and keeps
//! the `k` lowest difference counts per query, so only `k` (index, score)
//! pairs per query per pass cross the PCIe link. It runs on the same tile-pass
//! loop as the full-`γ` search — the same planner, comparison kernel,
//! double-buffered B prefetch and recovering schedule — so only the readback
//! differs, and an ablation quantifies what it saves. This module holds the
//! sink's types, its host-side selection and merge, and the reduction's
//! timing model.

use snp_gpu_model::InstrClass;
use snp_gpu_sim::host::KernelCost;
use snp_gpu_sim::macro_engine::Traffic;
use snp_trace::Metrics;

use crate::engine::Timing;
use crate::recovery::RecoverySummary;

/// One retained candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    /// Database row index.
    pub profile: usize,
    /// Difference count (`γ`); lower is better.
    pub differences: u32,
}

/// Result of a streaming top-k search.
#[derive(Debug, Clone)]
pub struct TopKReport {
    /// Per query: the best `k` candidates, ascending by difference count
    /// (ties broken by profile index). `None` in timing-only mode.
    pub matches: Option<Vec<Vec<Match>>>,
    /// Timing breakdown (same semantics as [`crate::Timing`]).
    pub timing: Timing,
    /// Kernel launches (comparison + reduction).
    pub passes: usize,
    /// Bytes the full-γ readback would have moved.
    pub full_readback_bytes: u64,
    /// Bytes the top-k readback actually moved.
    pub topk_readback_bytes: u64,
    /// What the recovery layer did (None on the fault-free fast path).
    pub recovery: Option<RecoverySummary>,
    /// This run's metrics ([`RunReport::metrics`](crate::RunReport::metrics)).
    pub metrics: Metrics,
}

/// Merges `candidates` into the per-query top-k lists.
pub(crate) fn merge_topk(
    best: &mut Vec<Match>,
    candidates: impl IntoIterator<Item = Match>,
    k: usize,
) {
    best.extend(candidates);
    best.sort_by_key(|m| (m.differences, m.profile));
    best.truncate(k);
}

/// Host-side reference: top-k from a full γ row (used by tests and by the
/// functional reduction).
pub fn topk_of_row(row: &[u32], base_index: usize, k: usize) -> Vec<Match> {
    let mut v: Vec<Match> = row
        .iter()
        .enumerate()
        .map(|(j, &d)| Match {
            profile: base_index + j,
            differences: d,
        })
        .collect();
    v.sort_by_key(|m| (m.differences, m.profile));
    v.truncate(k);
    v
}

/// Timing model of the reduction: one streaming read of the γ chunk bounded
/// by DRAM bandwidth, plus a compare-select per element on the integer pipe.
pub(crate) fn reduction_cost(
    dev: &snp_gpu_model::DeviceSpec,
    m: usize,
    n: usize,
    gamma_bytes: u64,
) -> KernelCost {
    let elements = (m * n) as f64;
    let lanes = dev.n_fn(InstrClass::IntAdd).unwrap_or(16) as f64 * dev.n_clusters as f64;
    // Two ALU ops (compare + conditional move) per element across all cores.
    let core_cycles = 2.0 * elements / (lanes * dev.n_cores as f64);
    KernelCost {
        core_cycles,
        active_cores: dev.n_cores,
        traffic: Traffic {
            read_bytes: gamma_bytes,
            write_bytes: (m * 64) as u64,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineError, EngineOptions, ExecMode, GpuEngine};
    use crate::MixtureStrategy;
    use snp_bitmat::BitMatrix;
    use snp_gpu_model::devices;

    fn matrix(rows: usize, cols: usize, salt: usize) -> BitMatrix<u64> {
        // Non-separable hash: no two rows share a bit pattern.
        BitMatrix::from_fn(rows, cols, |r, c| {
            let h = (r * 1_000_003 + c + salt * 7_777_777).wrapping_mul(0x9E37_79B9);
            (h >> 13).is_multiple_of(4)
        })
    }

    #[test]
    fn topk_matches_full_search_selection() {
        let q = matrix(6, 512, 1);
        let db = matrix(700, 512, 2);
        for dev in devices::all_gpus() {
            let engine = GpuEngine::new(dev.clone());
            let full = engine.identity_search(&q, &db).unwrap().gamma.unwrap();
            let topk = engine.identity_search_topk(&q, &db, 5).unwrap();
            let lists = topk.matches.unwrap();
            for (qi, list) in lists.iter().enumerate() {
                let want = topk_of_row(full.row(qi), 0, 5);
                assert_eq!(list, &want, "{} query {qi}", dev.name);
            }
        }
    }

    #[test]
    fn topk_correct_across_chunked_passes() {
        let mut dev = devices::titan_v();
        // Keep the name (and hence the Table II preset with n_r = 1024) but
        // shrink memory so the 1500-row database needs several B chunks
        // while one 1024-row tile still fits.
        dev.max_alloc_bytes = 100_000;
        dev.global_mem_bytes = 1_000_000;
        let q = matrix(4, 600, 3);
        let db = matrix(1500, 600, 4);
        let engine = GpuEngine::new(dev);
        let report = engine.identity_search_topk(&q, &db, 3).unwrap();
        assert!(report.passes > 2, "expected chunked passes");
        let full = GpuEngine::new(devices::titan_v())
            .identity_search(&q, &db)
            .unwrap()
            .gamma
            .unwrap();
        let lists = report.matches.unwrap();
        for (qi, list) in lists.iter().enumerate() {
            assert_eq!(list, &topk_of_row(full.row(qi), 0, 3), "query {qi}");
        }
    }

    #[test]
    fn topk_correct_when_the_plan_splits_the_queries() {
        // Shrunk until 128 queries need two m-chunks and 2000 profiles two
        // n-chunks: each chunk's winners belong to its own queries.
        let mut dev = devices::titan_v();
        dev.max_alloc_bytes = 1 << 18;
        dev.global_mem_bytes = 1 << 21;
        let q = matrix(128, 320, 9);
        let db = matrix(2000, 320, 10);
        let full = GpuEngine::new(dev.clone())
            .identity_search(&q, &db)
            .unwrap();
        assert_eq!(full.passes, 4, "expected a 2 x 2 plan");
        let gamma = full.gamma.unwrap();
        for mode in [ExecMode::Full, ExecMode::TimingOnly] {
            let opts = EngineOptions {
                mode,
                verify: true,
                ..Default::default()
            };
            let report = GpuEngine::new(dev.clone())
                .with_options(opts)
                .identity_search_topk(&q, &db, 3)
                .unwrap_or_else(|e| panic!("{mode:?}: {e}"));
            assert_eq!(report.passes, 8, "{mode:?}: two kernels per chunk");
            let Some(lists) = report.matches else {
                assert_eq!(mode, ExecMode::TimingOnly);
                continue;
            };
            for (qi, list) in lists.iter().enumerate() {
                assert_eq!(list, &topk_of_row(gamma.row(qi), 0, 3), "query {qi}");
            }
        }
    }

    #[test]
    fn topk_plans_budget_the_winners() {
        // Global memory swept across the two windows where a plan without
        // the winners fits exactly: one where the minimum working set
        // (winners included) is too big, one where a smaller chunking fits.
        let q = matrix(8, 320, 11);
        let db = matrix(4096, 320, 12);
        let engine = |words: u64, mode| {
            let mut dev = devices::titan_v();
            dev.global_mem_bytes = words * 4;
            let opts = EngineOptions {
                mode,
                ..Default::default()
            };
            GpuEngine::new(dev).with_options(opts)
        };
        for words in (36_900..37_100).chain(73_750..73_950) {
            match engine(words, ExecMode::TimingOnly).identity_search_topk(&q, &db, 3) {
                Ok(_) => {}
                Err(EngineError::Plan(_)) if words < 37_100 => {}
                Err(e) => panic!("{words} words: {e}"),
            }
        }
        let report = engine(73_808, ExecMode::Full)
            .identity_search_topk(&q, &db, 3)
            .unwrap();
        assert_eq!(report.passes, 8, "four chunks, two kernels each");
        let full = GpuEngine::new(devices::titan_v())
            .identity_search(&q, &db)
            .unwrap()
            .gamma
            .unwrap();
        for (qi, list) in report.matches.unwrap().iter().enumerate() {
            assert_eq!(list, &topk_of_row(full.row(qi), 0, 3), "query {qi}");
        }
    }

    #[test]
    fn chunked_topk_stream_verifies_clean() {
        let mut dev = devices::titan_v();
        dev.max_alloc_bytes = 100_000;
        dev.global_mem_bytes = 1_000_000;
        let q = matrix(4, 600, 3);
        let db = matrix(1500, 600, 4);
        for mode in [ExecMode::Full, ExecMode::TimingOnly] {
            let opts = EngineOptions {
                mode,
                verify: true,
                ..Default::default()
            };
            let report = GpuEngine::new(dev.clone())
                .with_options(opts)
                .identity_search_topk(&q, &db, 3)
                .unwrap_or_else(|e| panic!("{mode:?}: {e}"));
            assert!(report.passes > 2, "{mode:?}: expected chunked passes");
        }
    }

    #[test]
    fn planted_query_is_rank_one() {
        let db = matrix(400, 384, 5);
        let q = db.row_slice(123, 124);
        let engine = GpuEngine::new(devices::vega_64());
        let report = engine.identity_search_topk(&q, &db, 3).unwrap();
        let top = &report.matches.unwrap()[0];
        assert_eq!(
            top[0],
            Match {
                profile: 123,
                differences: 0
            }
        );
        assert!(top[1].differences > 0);
    }

    #[test]
    fn readback_savings_reported_and_time_improves_at_scale() {
        let opts = EngineOptions {
            mode: ExecMode::TimingOnly,
            double_buffer: true,
            mixture: MixtureStrategy::Direct,
            ..Default::default()
        };
        let q = BitMatrix::<u64>::zeros(32, 1024);
        let db = BitMatrix::<u64>::zeros(20_971_520, 1024);
        let dev = devices::titan_v();
        let engine = GpuEngine::new(dev.clone()).with_options(opts);
        let topk = engine.identity_search_topk(&q, &db, 10).unwrap();
        let full = engine.identity_search(&q, &db).unwrap();
        assert!(topk.topk_readback_bytes < topk.full_readback_bytes / 1000);
        assert!(
            topk.timing.end_to_end_ns < full.timing.end_to_end_ns,
            "top-k must beat the 2.7 GB γ readback: {} vs {}",
            topk.timing.end_to_end_ns,
            full.timing.end_to_end_ns
        );
    }

    #[test]
    fn k_larger_than_database_returns_everything() {
        let q = matrix(2, 128, 6);
        let db = matrix(5, 128, 7);
        let report = GpuEngine::new(devices::gtx_980())
            .identity_search_topk(&q, &db, 50)
            .unwrap();
        let lists = report.matches.unwrap();
        assert_eq!(lists[0].len(), 5, "only 5 profiles exist");
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn zero_k_rejected() {
        let q = matrix(1, 64, 8);
        let _ = GpuEngine::new(devices::gtx_980()).identity_search_topk(&q, &q, 0);
    }
}
