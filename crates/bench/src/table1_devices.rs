//! Regenerates **Table I**: the hardware parameters of the evaluated
//! devices, as recorded in the model database.

use crate::{banner, render_table};
use snp_gpu_model::{devices, InstrClass};

/// The Table I report.
pub fn table1_devices() -> String {
    let mut out = String::new();
    banner(
        &mut out,
        "Table I — mapping of GPU features to the corresponding CPU architecture",
    );
    let devs = devices::all_devices();
    let headers: Vec<&str> = {
        let mut h = vec!["Parameter"];
        h.extend(devs.iter().map(|d| d.name.as_str()));
        h
    };
    let mut rows: Vec<Vec<String>> = Vec::new();
    let row = |name: &str, f: &dyn Fn(&snp_gpu_model::DeviceSpec) -> String| -> Vec<String> {
        let mut r = vec![name.to_string()];
        r.extend(devs.iter().map(f));
        r
    };
    rows.push(row("Microarchitecture", &|d| d.microarchitecture.clone()));
    rows.push(row("Frequency (GHz)", &|d| {
        format!("{:.3}", d.frequency_ghz)
    }));
    rows.push(row("Thread Group Size N_T", &|d| d.n_t.to_string()));
    rows.push(row("Max Thread Groups N_grp", &|d| {
        d.max_thread_groups.to_string()
    }));
    rows.push(row("Compute Cores N_c", &|d| d.n_cores.to_string()));
    rows.push(row("Compute Clusters N_cl", &|d| d.n_clusters.to_string()));
    rows.push(row("N_fn^+ (32-bit add)", &|d| {
        d.n_fn(InstrClass::IntAdd).unwrap().to_string()
    }));
    rows.push(row("N_fn^& (32-bit logical)", &|d| {
        d.n_fn(InstrClass::Logic).unwrap().to_string()
    }));
    rows.push(row("N_fn^popc (population count)", &|d| {
        d.n_fn(InstrClass::Popc).unwrap().to_string()
    }));
    rows.push(row("L_fn (latency, cycles)", &|d| d.l_fn.to_string()));
    rows.push(row("Global Memory (GiB)", &|d| {
        format!("{:.3}", d.global_mem_bytes as f64 / (1u64 << 30) as f64)
    }));
    rows.push(row("Max Allocation (GiB)", &|d| {
        format!("{:.3}", d.max_alloc_bytes as f64 / (1u64 << 30) as f64)
    }));
    rows.push(row("Shared Memory (KiB)", &|d| {
        (d.shared_mem_bytes / 1024).to_string()
    }));
    rows.push(row("Shared Memory Banks N_b", &|d| {
        d.shared_banks.to_string()
    }));
    rows.push(row("Registers per Core", &|d| {
        if d.registers_per_core >= 1024 {
            format!("{}K", d.registers_per_core / 1024)
        } else {
            format!("{} logical", d.registers_per_core)
        }
    }));
    rows.push(row("Max Registers per Thread", &|d| {
        d.max_regs_per_thread.to_string()
    }));
    rows.push(row("Thread-group term", &|d| {
        d.thread_group_term().to_string()
    }));
    rows.push(row("Fused AND-NOT", &|d| {
        if d.fused_andnot { "yes" } else { "no" }.to_string()
    }));
    rows.push(row("Word width (bits)", &|d| d.word_bits.to_string()));
    out.push_str(&render_table(&headers, &rows));
    out.push_str(
        "\nPaper reference: Table I (values reproduced verbatim; the last three rows are\n",
    );
    out.push_str("model-level annotations: vendor thread-group terminology, the fused-negation\n");
    out.push_str("capability of §II-C, and the native packed word width).\n");
    out
}
