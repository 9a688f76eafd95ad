//! Beyond-the-paper extensions, quantified: streaming top-k readback,
//! multi-GPU sharding (§VII), and the hierarchical-memory analysis that
//! quantifies the paper's open Vega question.

use std::fmt::Write;

use crate::{banner, fmt_ns, render_table};
use snp_bitmat::BitMatrix;
use snp_core::{
    dgx2_like, Algorithm, EngineOptions, ExecMode, GpuEngine, MixtureStrategy, MultiGpuEngine,
};
use snp_gpu_model::devices;
use snp_gpu_model::presets::preset_for;
use snp_gpu_sim::cache::{analyze, l2_bytes_for};

fn timing_only() -> EngineOptions {
    EngineOptions {
        mode: ExecMode::TimingOnly,
        double_buffer: true,
        mixture: MixtureStrategy::Direct,
        ..Default::default()
    }
}

/// The extensions report: streaming top-k, multi-GPU sharding, and the
/// memory-hierarchy analysis.
pub fn extensions_report() -> String {
    let mut out = String::new();
    topk_section(&mut out);
    multi_gpu_section(&mut out);
    memory_analysis_section(&mut out);
    out
}

/// Streaming top-k: replaces the 2.7 GB γ readback of Fig. 8 with a
/// device-side reduction.
fn topk_section(out: &mut String) {
    banner(
        out,
        "Extension: streaming top-k readback (Fig. 8 workload, k = 10)",
    );
    let queries = BitMatrix::<u64>::zeros(32, 1024);
    let database = BitMatrix::<u64>::zeros(20_971_520, 1024);
    let mut rows = Vec::new();
    for dev in devices::all_gpus() {
        let engine = GpuEngine::new(dev.clone()).with_options(timing_only());
        let full = engine.identity_search(&queries, &database).unwrap();
        let topk = engine
            .identity_search_topk(&queries, &database, 10)
            .unwrap();
        rows.push(vec![
            dev.name.clone(),
            fmt_ns(full.timing.end_to_end_ns as f64),
            fmt_ns(topk.timing.end_to_end_ns as f64),
            format!(
                "{:.2}x",
                full.timing.end_to_end_ns as f64 / topk.timing.end_to_end_ns as f64
            ),
            format!(
                "{:.1} MB -> {:.2} MB",
                topk.full_readback_bytes as f64 / 1e6,
                topk.topk_readback_bytes as f64 / 1e6
            ),
        ]);
    }
    out.push_str(&render_table(
        &[
            "device",
            "full-γ end-to-end",
            "top-k end-to-end",
            "speedup",
            "readback",
        ],
        &rows,
    ));
    out.push_str(
        "  The candidate sets are bit-identical to full search + host selection (tested).\n\n",
    );
}

/// Multi-GPU database sharding on a DGX-2-like group.
fn multi_gpu_section(out: &mut String) {
    banner(
        out,
        "Extension: multi-GPU database sharding (paper §VII, DGX-2-like)",
    );
    let queries = BitMatrix::<u64>::zeros(32, 1024);
    let database = BitMatrix::<u64>::zeros(20_971_520, 1024);
    let mut rows = Vec::new();
    for n_dev in [1usize, 2, 4, 8, 16] {
        let devs = dgx2_like().into_iter().take(n_dev).collect::<Vec<_>>();
        let multi = MultiGpuEngine::new(devs).with_options(timing_only());
        let run = multi.identity_search(&queries, &database).unwrap();
        let busy: u64 = run
            .per_device
            .iter()
            .map(|r| r.timing.kernel_ns + r.timing.transfer_in_ns)
            .max()
            .unwrap_or(0);
        rows.push(vec![
            n_dev.to_string(),
            fmt_ns(run.end_to_end_ns as f64),
            fmt_ns(busy as f64),
            run.shard_rows
                .iter()
                .map(|r| (r / 1000).to_string())
                .collect::<Vec<_>>()
                .join("k/")
                + "k",
        ]);
    }
    out.push_str(&render_table(
        &["devices", "end-to-end", "max device busy", "shard sizes"],
        &rows,
    ));
    out.push_str("  Device-side work scales ~linearly; end-to-end floors at the unsharded\n");
    out.push_str("  per-device runtime-initialization cost.\n\n");

    // Heterogeneous sharding over every modeled GPU.
    let gpus = devices::all_gpus();
    let label = gpus
        .iter()
        .map(|d| d.name.as_str())
        .collect::<Vec<_>>()
        .join(" + ");
    let hetero = MultiGpuEngine::new(gpus).with_options(timing_only());
    let shards = hetero.shard_rows(20_971_520, Algorithm::IdentitySearch);
    let _ = writeln!(
        out,
        "heterogeneous group ({label}) shards 20.97M rows as {shards:?}\n  (proportional to each device's sustained rate)\n",
    );
}

/// The §VII hierarchical-memory question, quantified.
fn memory_analysis_section(out: &mut String) {
    banner(
        out,
        "Analysis: how much of Fig. 7 does a bandwidth-only memory model explain?",
    );
    let mut rows = Vec::new();
    for dev in devices::all_gpus() {
        let cfg = preset_for(&dev, Algorithm::LinkageDisequilibrium).unwrap();
        let a = analyze(&dev, &cfg, cfg.k_c);
        rows.push(vec![
            dev.name.clone(),
            format!("{:.3}", a.bytes_per_word_op),
            format!("{:.1}", a.demand_per_core / 1e9),
            format!("{:.0}", a.supply / 1e9),
            format!("{:.0}", a.bandwidth_knee_cores),
            dev.memory.scaling_knee.to_string(),
            format!(
                "{:.1} MB / {}",
                l2_bytes_for(&dev) as f64 / 1e6,
                a.cores_fitting_l2
            ),
        ]);
    }
    out.push_str(&render_table(
        &[
            "device",
            "B/word-op",
            "demand GB/s/core",
            "supply GB/s",
            "bandwidth knee (cores)",
            "observed knee",
            "L2 / cores fitting",
        ],
        &rows,
    ));
    out.push_str("  Pure DRAM bandwidth predicts Vega saturating only near ~47 cores — far past\n");
    out.push_str("  the observed 8-core knee — while the concurrent B panels of just ~2 cores\n");
    out.push_str("  already overflow its 4 MB L2. The collapse is therefore a cache/contention\n");
    out.push_str("  phenomenon outside the paper's model (its own §VII conclusion), which this\n");
    out.push_str("  reproduction encodes as the calibrated scaling knob (DESIGN.md §6).\n");
}
