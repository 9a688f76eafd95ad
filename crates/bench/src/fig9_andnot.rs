//! Regenerates **Fig. 9**: kernel throughput on ONE compute core when the
//! comparison is AND vs AND-NOT (mixture analysis without pre-negation).
//!
//! Expected shape (paper §VI-E-1): "including the NOT in the computation has
//! no noticeable effect on the NVIDIA cards" (their LOP3 fuses the
//! negation), "but throughput drops for the Vega 64" (its NOT issues on the
//! same VALU pipeline as ADD and AND). The paper runs this on one core "to
//! lessen the impact of scalability".

use crate::{banner, eng, render_table};
use snp_bitmat::CompareOp;
use snp_core::{config_for, Algorithm, KernelPlan};
use snp_gpu_model::config::ProblemShape;
use snp_gpu_model::devices;

/// The Fig. 9 report.
pub fn fig9_andnot() -> String {
    let mut out = String::new();
    banner(
        &mut out,
        "Fig. 9 — AND vs AND-NOT comparison throughput on 1 core",
    );
    let mut rows = Vec::new();
    for dev in devices::all_gpus() {
        let k_words = 512usize;
        let mut cfg = config_for(
            &dev,
            Algorithm::MixtureAnalysis,
            ProblemShape {
                m: 32,
                n: 16 * 1024,
                k_words,
            },
        );
        cfg.grid_m = 1;
        cfg.grid_n = 1;
        let n_total = 16 * cfg.n_r;
        let tput = |op: CompareOp| {
            let plan = KernelPlan::new(&dev, &cfg, op, cfg.m_c, n_total, k_words);
            assert_eq!(plan.active_cores, 1);
            let kt = plan.time(&dev);
            plan.achieved_word_ops_per_sec(kt.total_ns)
        };
        let and = tput(CompareOp::And);
        let andnot = tput(CompareOp::AndNot);
        rows.push(vec![
            dev.name.clone(),
            if dev.fused_andnot {
                "fused (LOP3)"
            } else {
                "separate NOT"
            }
            .to_string(),
            eng(and / 1e9),
            eng(andnot / 1e9),
            format!("{:.1}%", 100.0 * andnot / and),
        ]);
    }
    out.push_str(&render_table(
        &[
            "device",
            "AND-NOT support",
            "AND G word-ops/s",
            "AND-NOT G word-ops/s",
            "ratio",
        ],
        &rows,
    ));
    out.push_str("\nShape check: NVIDIA ratios = 100% (identical bars in Fig. 9); Vega drops\n");
    out.push_str("toward 2/3 because the explicit NOT adds a third issue slot on the shared\n");
    out.push_str("ADD/AND pipeline. Pre-negating the database (§II-C) restores the AND rate —\n");
    out.push_str("see the pre-negation table of `ablation_report`.\n");
    out
}
