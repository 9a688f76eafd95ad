//! Regenerates **Fig. 8**: end-to-end FastID identity search — 32 queries
//! (the smallest query size that uses every shared-memory bank, §VI-D)
//! against a database of more than 20 million profiles (sized after the FBI
//! NDIS database), for SNP counts from 128 to 1024.
//!
//! The run exercises the full framework machinery: the GTX 980 cannot hold
//! the database or the output in one allocation, so the pass planner chunks
//! it (§VI-E-2), and double buffering overlaps the database upload with
//! computation. Timing-only mode keeps host memory use flat.

use crate::{banner, fmt_ns, render_table};
use snp_bitmat::BitMatrix;
use snp_core::{Algorithm, EngineOptions, ExecMode, GpuEngine, MixtureStrategy};
use snp_gpu_model::devices;

const QUERIES: usize = 32;
const PROFILES: usize = 20_971_520; // > 20 M, ≈ NDIS scale (§VI-D footnote)

/// The Fig. 8 report.
pub fn fig8_fastid() -> String {
    let mut out = String::new();
    banner(
        &mut out,
        "Fig. 8 — FastID: 32 queries against a >20M-profile database",
    );
    let opts = EngineOptions {
        mode: ExecMode::TimingOnly,
        double_buffer: true,
        mixture: MixtureStrategy::Direct,
        ..Default::default()
    };
    let gpus = devices::all_gpus();
    let mut headers = vec!["SNPs".to_string()];
    for d in &gpus {
        headers.push(d.name.clone());
        headers.push(format!("{} passes", d.name));
    }
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let mut rows = Vec::new();
    for snps in [128usize, 256, 512, 1024] {
        let queries = BitMatrix::<u64>::zeros(QUERIES, snps);
        let database = BitMatrix::<u64>::zeros(PROFILES, snps);
        let mut row = vec![snps.to_string()];
        for dev in &gpus {
            let engine = GpuEngine::new(dev.clone()).with_options(opts);
            let run = engine
                .compare(&queries, &database, Algorithm::IdentitySearch)
                .expect("FastID run");
            row.push(fmt_ns(run.timing.end_to_end_ns as f64));
            row.push(run.passes.to_string());
        }
        rows.push(row);
    }
    out.push_str(&render_table(&header_refs, &rows));
    out.push_str("\nShape check: time grows roughly linearly with SNP count (the database\n");
    out.push_str("transfer dominates at this extreme aspect ratio); the GTX 980 needs many\n");
    out.push_str("passes (max allocation 0.983 GiB), the Titan V and Vega 64 far fewer; all\n");
    out.push_str("devices complete a >20M-profile search in seconds — the paper's argument\n");
    out.push_str("that forensic-scale identity search is practical on one GPU.\n");
    out
}
