//! Regenerates **Fig. 7**: per-core performance relative to one core, using
//! the largest supported LD tile size, as the number of compute cores in
//! use grows (the problem size scales with the core count, so each core's
//! work is constant).
//!
//! Expected shape: Titan V stays near 100 % ("scales almost perfectly"),
//! GTX 980 reaches about 90 % at 16 cores, and Vega 64's per-core
//! performance "drops drastically when using more than 8 compute cores".

use std::fmt::Write;

use crate::{banner, render_table};
use snp_bitmat::CompareOp;
use snp_core::{config_for, Algorithm, KernelPlan};
use snp_gpu_model::config::ProblemShape;
use snp_gpu_model::devices;

/// Tile jobs per core — enough work that launch overhead is negligible.
const JOBS_PER_CORE: usize = 16;

/// The Fig. 7 report.
pub fn fig7_scalability() -> String {
    let mut out = String::new();
    banner(
        &mut out,
        "Fig. 7 — per-core LD performance relative to 1 core",
    );
    for dev in devices::all_gpus() {
        // Largest supported LD tile: full shared-memory depth.
        let k_words = config_for(
            &dev,
            Algorithm::LinkageDisequilibrium,
            ProblemShape {
                m: 4096,
                n: 4096,
                k_words: 512,
            },
        )
        .k_c;
        let _ = writeln!(
            out,
            "{} (shared-dimension words per tile: {k_words})",
            dev.name
        );
        let mut rows = Vec::new();
        let mut per_core_1 = 0.0;
        let mut cores = 1u32;
        loop {
            let cores_now = cores.min(dev.n_cores);
            // Scale the problem with the core count: each core gets
            // JOBS_PER_CORE tiles along the n dimension.
            let mut cfg = config_for(
                &dev,
                Algorithm::LinkageDisequilibrium,
                ProblemShape {
                    m: 32,
                    n: cores_now as usize * JOBS_PER_CORE * 1024,
                    k_words,
                },
            );
            cfg.grid_m = 1;
            cfg.grid_n = cores_now;
            let n_total = cores_now as usize * JOBS_PER_CORE * cfg.n_r;
            let plan = KernelPlan::new(&dev, &cfg, CompareOp::And, cfg.m_c, n_total, k_words);
            assert_eq!(plan.active_cores, cores_now);
            assert_eq!(plan.jobs_per_core, JOBS_PER_CORE as u64);
            let kt = plan.time(&dev);
            let per_core = plan.achieved_word_ops_per_sec(kt.total_ns) / cores_now as f64;
            if cores_now == 1 {
                per_core_1 = per_core;
            }
            let rel = 100.0 * per_core / per_core_1;
            rows.push(vec![
                cores_now.to_string(),
                format!("{:.1}", per_core / 1e9),
                format!("{rel:.1}%"),
            ]);
            if cores_now == dev.n_cores {
                break;
            }
            cores *= 2;
        }
        out.push_str(&render_table(
            &["cores", "G word-ops/s per core", "relative to 1 core"],
            &rows,
        ));
        out.push('\n');
    }
    out.push_str("Shape check: Titan V ≈ flat; GTX 980 ≈ 90% at 16 cores; Vega 64 flat to 8\n");
    out.push_str("cores then collapsing — the memory-system behaviour the paper observes but\n");
    out.push_str("leaves unmodeled (§VI-C), reproduced here by the calibrated scaling knob.\n");
    out
}
