//! Regenerates **Table II**: the software configuration parameters for each
//! device × algorithm, alongside the analytical model's derivation (Eqs.
//! 4–7) so the "systematic approach identifying how software parameters can
//! be specialized" is visible.

use crate::{banner, render_table};
use snp_gpu_model::config::{
    derive_config, derive_k_c, derive_m_c, derive_m_r, n_r_lower_bound, n_r_upper_bound, McRule,
    ProblemShape,
};
use snp_gpu_model::devices;
use snp_gpu_model::presets::{table2, PresetAlgorithm};

/// The Table II report, with the analytical model's derivation beside it.
pub fn table2_configs() -> String {
    let mut out = String::new();
    banner(
        &mut out,
        "Table II — software configuration parameters for SNP comparison",
    );
    let headers = ["Algorithm", "Parameter", "GTX 980", "Titan V", "Vega 64"].to_vec();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for alg in [PresetAlgorithm::Ld, PresetAlgorithm::FastId] {
        let name = match alg {
            PresetAlgorithm::Ld => "Linkage disequilibrium",
            PresetAlgorithm::FastId => "FastID",
        };
        let presets: Vec<_> = table2()
            .into_iter()
            .filter(|p| p.algorithm == alg)
            .collect();
        let get = |device: &str| presets.iter().find(|p| p.device == device).unwrap().config;
        let cfgs = [get("GTX 980"), get("Titan V"), get("Vega 64")];
        let mut push = |param: &str, f: &dyn Fn(&snp_gpu_model::KernelConfig) -> String| {
            let mut r = vec![name.to_string(), param.to_string()];
            r.extend(cfgs.iter().map(f));
            rows.push(r);
        };
        push("Core configuration", &|c| {
            format!("{}x{}", c.grid_m, c.grid_n)
        });
        push("m_r", &|c| c.m_r.to_string());
        push("n_r", &|c| c.n_r.to_string());
        push("k_c", &|c| c.k_c.to_string());
        push("m_c", &|c| c.m_c.to_string());
    }
    out.push_str(&render_table(&headers, &rows));

    banner(
        &mut out,
        "Analytical model (Eqs. 4-7): derived values and bounds per device",
    );
    let headers2 = vec![
        "Device",
        "m_r = N_vec (Eq.4)",
        "m_c = N_b (Tab.II)",
        "m_c = N_b/N_cl (Eq.5)",
        "k_c (Eq.6)",
        "n_r lower (Eq.7)",
        "n_r upper (regs)",
        "n_r chosen (model)",
    ];
    let shape = ProblemShape {
        m: 12_256,
        n: 12_256,
        k_words: 383,
    };
    let mut rows2 = Vec::new();
    for dev in devices::all_gpus() {
        let m_r = derive_m_r(&dev);
        let m_c = derive_m_c(&dev, McRule::Banks);
        let cfg = derive_config(&dev, shape, McRule::Banks);
        rows2.push(vec![
            dev.name.clone(),
            m_r.to_string(),
            m_c.to_string(),
            derive_m_c(&dev, McRule::BanksPerCluster).to_string(),
            derive_k_c(&dev).to_string(),
            n_r_lower_bound(&dev, m_r, m_c).to_string(),
            n_r_upper_bound(&dev, m_r).to_string(),
            cfg.n_r.to_string(),
        ]);
    }
    out.push_str(&render_table(&headers2, &rows2));
    out.push_str("\nEvery Table II n_r lies within [Eq.7 lower bound, register upper bound]\n");
    out.push_str("(asserted by the snp-gpu-model test suite). The Eq. 5 column shows the\n");
    out.push_str("formula as printed; Table II itself uses m_c = N_b — see DESIGN.md §6.\n");
    out
}
