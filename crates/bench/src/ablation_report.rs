//! Modeled ablations over the simulated devices (virtual time). One section
//! per design choice DESIGN.md §5 lists.

use crate::{banner, eng, fmt_ns, render_table};
use snp_bitmat::{BitMatrix, CompareOp};
use snp_core::{
    config_for, Algorithm, EngineOptions, ExecMode, GpuEngine, KernelPlan, MixtureStrategy,
};
use snp_gpu_model::config::ProblemShape;
use snp_gpu_model::devices;

fn one_core_throughput(
    dev: &snp_gpu_model::DeviceSpec,
    cfg: &snp_gpu_model::KernelConfig,
    op: CompareOp,
    k_words: usize,
) -> f64 {
    let plan = KernelPlan::new(dev, cfg, op, cfg.m_c, 16 * cfg.n_r, k_words);
    plan.achieved_word_ops_per_sec(plan.time(dev).total_ns)
}

/// The ablation report: pre-negation, double buffering, occupancy, and the
/// n_r sweep.
pub fn ablation_report() -> String {
    let mut out = String::new();
    ablation_prenegate(&mut out);
    ablation_double_buffer(&mut out);
    ablation_occupancy(&mut out);
    ablation_nr(&mut out);
    out
}

/// §II-C / §VI-E-1: direct AND-NOT vs pre-negated database, per device.
fn ablation_prenegate(out: &mut String) {
    banner(
        out,
        "Ablation: mixture analysis — direct AND-NOT vs pre-negated database (1 core)",
    );
    let mut rows = Vec::new();
    for dev in devices::all_gpus() {
        let k = 512;
        let mut cfg = config_for(
            &dev,
            Algorithm::MixtureAnalysis,
            ProblemShape {
                m: 32,
                n: 16_384,
                k_words: k,
            },
        );
        cfg.grid_m = 1;
        cfg.grid_n = 1;
        let direct = one_core_throughput(&dev, &cfg, CompareOp::AndNot, k);
        let pre = one_core_throughput(&dev, &cfg, CompareOp::And, k);
        rows.push(vec![
            dev.name.clone(),
            eng(direct / 1e9),
            eng(pre / 1e9),
            format!("{:+.1}%", 100.0 * (pre / direct - 1.0)),
        ]);
    }
    out.push_str(&render_table(
        &[
            "device",
            "direct G w-ops/s",
            "pre-negated G w-ops/s",
            "gain",
        ],
        &rows,
    ));
    out.push_str("  Expected: ~0% on NVIDIA (fused LOP3), ~+50% on Vega (drops the VALU NOT).\n\n");
}

/// §VI-A-1 / §VI-E-2: double buffering on vs off, end to end.
fn ablation_double_buffer(out: &mut String) {
    banner(
        out,
        "Ablation: double buffering — end-to-end FastID, 32 queries x 20.97M profiles x 1024 SNPs",
    );
    let queries = BitMatrix::<u64>::zeros(32, 1024);
    let database = BitMatrix::<u64>::zeros(20_971_520, 1024);
    let mut rows = Vec::new();
    for dev in devices::all_gpus() {
        let run = |double_buffer: bool| {
            GpuEngine::new(dev.clone())
                .with_options(EngineOptions {
                    mode: ExecMode::TimingOnly,
                    double_buffer,
                    mixture: MixtureStrategy::Direct,
                    ..Default::default()
                })
                .compare(&queries, &database, Algorithm::IdentitySearch)
                .unwrap()
        };
        let on = run(true);
        let off = run(false);
        rows.push(vec![
            dev.name.clone(),
            fmt_ns(on.timing.end_to_end_ns as f64),
            fmt_ns(off.timing.end_to_end_ns as f64),
            format!(
                "{:.2}x",
                off.timing.end_to_end_ns as f64 / on.timing.end_to_end_ns as f64
            ),
            format!("{} / {}", on.passes, off.passes),
        ]);
    }
    out.push_str(&render_table(
        &[
            "device",
            "double-buffered",
            "single-buffered",
            "speedup",
            "passes on/off",
        ],
        &rows,
    ));
    out.push_str("  Expected: >=1x everywhere; largest where transfers rival compute.\n\n");
}

/// §V-E after Volkov: thread groups per cluster = L_fn vs maximum occupancy.
fn ablation_occupancy(out: &mut String) {
    banner(
        out,
        "Ablation: occupancy — groups per cluster = L_fn (paper) vs device maximum",
    );
    let mut rows = Vec::new();
    for dev in devices::all_gpus() {
        let k = 512;
        let cfg = config_for(
            &dev,
            Algorithm::LinkageDisequilibrium,
            ProblemShape {
                m: 4096,
                n: 46_080,
                k_words: k,
            },
        );
        let tput = |groups: u32| {
            let mut c = cfg;
            c.groups_per_cluster = groups;
            // n_r must distribute evenly over the groups and their threads.
            let unit = groups as usize * dev.n_t as usize;
            c.n_r = (c.n_r / unit).max(1) * unit;
            // 46 080 = lcm of the candidate n_r values x grid width: no tile-
            // quantization noise contaminates the occupancy comparison.
            let plan = KernelPlan::new(&dev, &c, CompareOp::And, 4096, 46_080, k);
            plan.achieved_word_ops_per_sec(plan.time(&dev).total_ns)
        };
        let paper = tput(dev.l_fn);
        let max_g = dev.max_thread_groups / dev.n_clusters.max(1);
        let max_occ = tput(max_g.max(dev.l_fn));
        rows.push(vec![
            dev.name.clone(),
            format!("{} grp/cluster: {} G/s", dev.l_fn, eng(paper / 1e9)),
            format!(
                "{} grp/cluster: {} G/s",
                max_g.max(dev.l_fn),
                eng(max_occ / 1e9)
            ),
            format!("{:+.1}%", 100.0 * (max_occ / paper - 1.0)),
        ]);
    }
    out.push_str(&render_table(
        &["device", "paper occupancy", "max occupancy", "delta"],
        &rows,
    ));
    out.push_str("  Expected: near-zero gain from extra occupancy (Volkov: lower occupancy with\n");
    out.push_str("  more registers per thread is enough once pipelines are covered).\n\n");
}

/// Eq. 7: sweep n_r around the configured value.
fn ablation_nr(out: &mut String) {
    banner(
        out,
        "Ablation: register blocking n_r sweep (Titan V, 1 core)",
    );
    let dev = devices::titan_v();
    let k = 383;
    let base = config_for(
        &dev,
        Algorithm::LinkageDisequilibrium,
        ProblemShape {
            m: 32,
            n: 65_536,
            k_words: k,
        },
    );
    let lo = snp_gpu_model::config::n_r_lower_bound(&dev, base.m_r, base.m_c);
    let mut rows = Vec::new();
    let mut n_r = lo;
    while n_r <= 4096 {
        let mut cfg = base;
        cfg.n_r = n_r;
        cfg.grid_m = 1;
        cfg.grid_n = 1;
        if cfg.violations(&dev).is_empty() {
            let plan = KernelPlan::new(&dev, &cfg, CompareOp::And, cfg.m_c, 16 * cfg.n_r, k);
            let t = plan.achieved_word_ops_per_sec(plan.time(&dev).total_ns);
            rows.push(vec![
                n_r.to_string(),
                eng(t / 1e9),
                if n_r == base.n_r {
                    "<- Table II".to_string()
                } else {
                    String::new()
                },
            ]);
        }
        n_r *= 2;
    }
    out.push_str(&render_table(&["n_r", "G word-ops/s (1 core)", ""], &rows));
    out.push_str("  Expected: throughput rises toward the Eq. 7 bound then flattens — larger\n");
    out.push_str("  register tiles amortize A/B loads until the popcount pipe saturates.\n");
}
