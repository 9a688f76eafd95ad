//! Regenerates **Fig. 5**: LD kernel throughput as the number of SNP
//! strings (samples, the shared dimension) grows to the device maximum of
//! one shared-memory tile, with the SNP count (m = n) near each device's
//! maximum:
//!
//! * SNPs per device — Maxwell 15 360, Volta 25 600, Vega 40 960 (the
//!   largest square output fitting the max allocation);
//! * SNP strings to the device maximum — Maxwell/Volta 12 256 (= k_c × 32
//!   = 383 × 32), Vega 16 384 (= 512 × 32).
//!
//! Expected shape: throughput rises with string count (greater reuse per
//! accumulated comparison amortizes prologue/epilogue and the C-write
//! traffic) and approaches the theoretical-peak dotted line; achieved
//! fractions at the maximum were 90.7 % (GTX 980), 97.1 % (Titan V) and
//! 54.9 % (Vega 64).

use std::fmt::Write;

use crate::{banner, eng, fmt_ns, render_table};
use snp_bitmat::CompareOp;
use snp_core::{config_for, Algorithm, KernelPlan};
use snp_gpu_model::config::ProblemShape;
use snp_gpu_model::peak::peak;
use snp_gpu_model::{devices, WordOpKind};

/// The Fig. 5 report.
pub fn fig5_ld_kernel() -> String {
    let mut out = String::new();
    banner(
        &mut out,
        "Fig. 5 — LD kernel throughput vs number of SNP strings",
    );
    let cases = [
        (devices::gtx_980(), 15_360usize, 12_256usize, 90.7),
        (devices::titan_v(), 25_600, 12_256, 97.1),
        (devices::vega_64(), 40_960, 16_384, 54.9),
    ];
    for (dev, snps, max_strings, paper_pct) in cases {
        let pk = peak(&dev, WordOpKind::And);
        let _ = writeln!(
            out,
            "{} — {} SNPs (m = n), theoretical peak {} G word-ops/s",
            dev.name,
            snps,
            eng(pk.word_ops_per_sec / 1e9)
        );
        let mut rows = Vec::new();
        let mut strings = 256usize;
        #[allow(unused_assignments)]
        let mut final_pct = f64::NAN;
        loop {
            let strings_now = strings.min(max_strings);
            let k_words = strings_now.div_ceil(32);
            let shape = ProblemShape {
                m: snps,
                n: snps,
                k_words,
            };
            let cfg = config_for(&dev, Algorithm::LinkageDisequilibrium, shape);
            let plan = KernelPlan::new(&dev, &cfg, CompareOp::And, snps, snps, k_words);
            let kt = plan.time(&dev);
            let tput = plan.achieved_word_ops_per_sec(kt.total_ns);
            let pct = 100.0 * tput / pk.word_ops_per_sec;
            final_pct = pct;
            rows.push(vec![
                strings_now.to_string(),
                fmt_ns(kt.total_ns),
                eng(tput / 1e9),
                format!("{pct:.1}%"),
                if kt.memory_ns > kt.compute_ns {
                    "memory"
                } else {
                    "compute"
                }
                .to_string(),
            ]);
            if strings_now == max_strings {
                break;
            }
            strings *= 2;
        }
        out.push_str(&render_table(
            &[
                "SNP strings",
                "kernel time",
                "G word-ops/s",
                "% of peak",
                "bound",
            ],
            &rows,
        ));
        let _ = writeln!(
            out,
            "  at maximum strings: {final_pct:.1}% of peak (paper: {paper_pct}%)\n"
        );
    }
    out.push_str("Shape check: throughput must rise monotonically with string count and the\n");
    out.push_str("final percentages must rank Titan V > GTX 980 >> Vega 64, as in the paper.\n");
    out
}
