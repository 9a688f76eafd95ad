//! Regenerates the §V-B–§V-D instrument readings (paper footnote 1): the
//! measured instruction latencies and throughputs, and the pipeline-sharing
//! map, for every evaluated device — the procedure a user runs to fill in
//! Table I for new hardware ("we determined the theoretical peak solely
//! through microbenchmarking" for the Vega 64).

use std::fmt::Write;

use crate::{banner, eng, render_table};
use snp_gpu_model::{devices, InstrClass};
use snp_microbench::{
    classify_sharing, measure_latency_cycles, measure_throughput, recover_parameters,
    sweep_thread_groups,
};

/// The §V-C/§V-D instrument-readings report.
pub fn microbench_table() -> String {
    let mut out = String::new();
    banner(
        &mut out,
        "§V-C — instruction latency (single work-item dependent chains)",
    );
    let classes = [
        InstrClass::IntAdd,
        InstrClass::Logic,
        InstrClass::Not,
        InstrClass::Popc,
    ];
    let devs = devices::all_gpus();
    {
        let mut headers = vec!["instruction".to_string()];
        headers.extend(devs.iter().map(|d| format!("{} (cycles)", d.name)));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let rows: Vec<Vec<String>> = classes
            .iter()
            .map(|&c| {
                let mut row = vec![c.to_string()];
                row.extend(
                    devs.iter()
                        .map(|d| format!("{:.2}", measure_latency_cycles(d, c).cycles_per_instr)),
                );
                row
            })
            .collect();
        out.push_str(&render_table(&header_refs, &rows));
        out.push_str("  (Table I L_fn row: GTX 980 = 6, Titan V = 4, Vega 64 = 4)\n\n");
    }

    banner(
        &mut out,
        "§V-D — saturated throughput at N_grp = N_cl x L_fn (thread-instr/cycle/core)",
    );
    {
        let mut headers = vec!["instruction".to_string()];
        headers.extend(devs.iter().map(|d| d.name.clone()));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let rows: Vec<Vec<String>> = classes
            .iter()
            .map(|&c| {
                let mut row = vec![c.to_string()];
                row.extend(devs.iter().map(|d| {
                    let m = measure_throughput(d, c, d.chosen_occupancy_groups());
                    format!(
                        "{} (= {} units/cluster)",
                        eng(m.instrs_per_cycle),
                        eng(m.instrs_per_cycle / d.n_clusters as f64)
                    )
                }));
                row
            })
            .collect();
        out.push_str(&render_table(&header_refs, &rows));
        out.push_str("  (recovered units/cluster must equal the Table I N_fn rows)\n\n");
    }

    banner(&mut out, "§V-D — thread-group sweep (GTX 980, popcount)");
    {
        let dev = devices::gtx_980();
        let sweep = sweep_thread_groups(&dev, InstrClass::Popc, dev.chosen_occupancy_groups());
        let rows: Vec<Vec<String>> = sweep
            .iter()
            .filter(|m| m.n_grp % dev.n_clusters == 0 || m.n_grp == 1)
            .map(|m| {
                vec![
                    m.n_grp.to_string(),
                    m.cycles.to_string(),
                    eng(m.instrs_per_cycle),
                    eng(m.instrs_per_sec / 1e9),
                ]
            })
            .collect();
        out.push_str(&render_table(
            &["N_grp", "cycles", "instr/cycle/core", "G instr/s/core"],
            &rows,
        ));
        out.push_str("  (time flat for N_grp <= N_cl; peak by N_grp = N_cl x L_fn = 24)\n\n");
    }

    banner(
        &mut out,
        "§V-D — pipeline sharing probes (mixed instruction streams)",
    );
    {
        let pairs = [
            (InstrClass::Popc, InstrClass::IntAdd),
            (InstrClass::IntAdd, InstrClass::Logic),
            (InstrClass::IntAdd, InstrClass::Not),
        ];
        let mut headers = vec!["pair".to_string()];
        headers.extend(devs.iter().map(|d| d.name.clone()));
        let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
        let rows: Vec<Vec<String>> = pairs
            .iter()
            .map(|&(a, b)| {
                let mut row = vec![format!("{a} + {b}")];
                row.extend(devs.iter().map(|d| {
                    let s = classify_sharing(d, a, b);
                    format!(
                        "{} (x{:.2})",
                        if s.shared { "SHARED" } else { "separate" },
                        s.slowdown
                    )
                }));
                row
            })
            .collect();
        out.push_str(&render_table(&header_refs, &rows));
        out.push_str(
            "  (paper: popc is its own pipe everywhere; Vega's ADD/AND/NOT share one VALU)\n\n",
        );
    }

    banner(&mut out, "Recovered parameter summary (recover_parameters)");
    for dev in &devs {
        let r = recover_parameters(dev);
        let n_fn: Vec<String> = r.n_fn.iter().map(|(c, u)| format!("{c}={u}")).collect();
        let _ = writeln!(
            out,
            "{:<10} L_fn(popc) = {:.1}; N_fn: {}; shared pairs: {:?}",
            dev.name,
            r.latency_for(InstrClass::Popc).unwrap(),
            n_fn.join(", "),
            r.shared_pairs
                .iter()
                .map(|(a, b)| format!("{a}+{b}"))
                .collect::<Vec<_>>()
        );
    }
    out
}
