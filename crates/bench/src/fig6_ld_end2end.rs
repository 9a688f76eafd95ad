//! Regenerates **Fig. 6**: end-to-end LD performance (data transfer +
//! computation, inclusive of runtime initialization) on simulated datasets
//! of 10 000 SNPs, as the number of sequences (samples) grows. The CPU line
//! is the modeled Xeon E5-2620 v2 workstation of \[11\] (its data is host-
//! resident, so it pays no initialization or transfer).
//!
//! Expected shape: for small problems the GPU's runtime-initialization cost
//! (hundreds of ms) dominates and the CPU wins; large enough problems
//! amortize it and the GPUs finish 47 %–677 % faster than the CPU.

use std::fmt::Write;

use crate::{banner, fmt_ns, render_table};
use snp_bitmat::BitMatrix;
use snp_core::{Algorithm, CpuModel, EngineOptions, ExecMode, GpuEngine, MixtureStrategy};
use snp_gpu_model::{devices, WordOpKind};

const SNPS: usize = 10_000;

/// The Fig. 6 report.
pub fn fig6_ld_end2end() -> String {
    let mut out = String::new();
    banner(
        &mut out,
        "Fig. 6 — end-to-end LD on 10,000-SNP datasets vs number of sequences",
    );
    let cpu = CpuModel::ivy_bridge_workstation();
    let gpus = devices::all_gpus();
    let opts = EngineOptions {
        mode: ExecMode::TimingOnly,
        double_buffer: true,
        mixture: MixtureStrategy::Direct,
        ..Default::default()
    };

    let mut headers = vec!["sequences".to_string(), "CPU (model)".to_string()];
    for d in &gpus {
        headers.push(d.name.clone());
        headers.push(format!("{} speedup", d.name));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();

    let mut rows = Vec::new();
    let mut best_speedup: (f64, String) = (0.0, String::new());
    let mut worst_positive: (f64, String) = (f64::INFINITY, String::new());
    for sequences in [1_000usize, 2_000, 5_000, 10_000, 15_000, 20_000, 25_000] {
        let cpu_ns = cpu.time_ns_for_bits(WordOpKind::And, SNPS, SNPS, sequences);
        let mut row = vec![sequences.to_string(), fmt_ns(cpu_ns)];
        // The panel content is irrelevant to timing; build an empty matrix of
        // the right shape (timing-only mode never reads it).
        let panel = BitMatrix::<u64>::zeros(SNPS, sequences);
        for dev in &gpus {
            let engine = GpuEngine::new(dev.clone()).with_options(opts);
            let run = engine
                .compare(&panel, &panel, Algorithm::LinkageDisequilibrium)
                .expect("LD run");
            let gpu_ns = run.timing.end_to_end_ns as f64;
            let speedup = cpu_ns / gpu_ns;
            row.push(fmt_ns(gpu_ns));
            row.push(format!("{speedup:.2}x"));
            if speedup > best_speedup.0 {
                best_speedup = (speedup, format!("{} @ {sequences} sequences", dev.name));
            }
            if speedup > 1.0 && speedup < worst_positive.0 {
                worst_positive = (speedup, format!("{} @ {sequences} sequences", dev.name));
            }
        }
        rows.push(row);
    }
    out.push_str(&render_table(&header_refs, &rows));
    out.push('\n');
    let _ = writeln!(
        out,
        "smallest winning GPU speedup: {:.2}x ({}) — paper's lower bound: 1.47x (\"47% faster\")",
        worst_positive.0, worst_positive.1
    );
    let _ = writeln!(
        out,
        "largest GPU speedup:          {:.2}x ({}) — paper's upper bound: 7.77x (\"677% faster\")",
        best_speedup.0, best_speedup.1
    );
    out.push_str("\nShape check: GPUs lose below the initialization-amortization crossover and\n");
    out.push_str("win increasingly above it; Titan V > Vega 64 > GTX 980 at large sizes.\n");
    out
}
