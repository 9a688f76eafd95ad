//! Two threads outside the pool run the parallel engine at the same time,
//! as tests and a multithreaded caller do: one runs FastID searches, the
//! other LD scans, and every γ must match the reference.

use std::thread;

use snp_bitmat::{reference_gamma, BitMatrix, CompareOp};
use snp_cpu::CpuEngine;

fn matrix(rows: usize, bits: usize, salt: usize) -> BitMatrix<u64> {
    BitMatrix::from_fn(rows, bits, |r, c| {
        (r.wrapping_mul(0x9E37_79B9) ^ c.wrapping_mul(0x85EB_CA6B) ^ salt) % 5 < 2
    })
}

#[test]
fn concurrent_searches_and_ld_scans_match_the_reference() {
    // Both shapes cut more tiles than the pool has threads: 8 queries
    // against 300 profiles, and a 200-SNP panel of three row blocks.
    let (queries, database) = (matrix(8, 64 * 40, 1), matrix(300, 64 * 40, 2));
    let panel = matrix(200, 64 * 20 - 5, 3);
    let fastid = reference_gamma(&queries, &database, CompareOp::Xor);
    let ld = reference_gamma(&panel, &panel, CompareOp::And);
    thread::scope(|s| {
        s.spawn(|| {
            for run in 0..50 {
                let got = CpuEngine::new().identity_search(&queries, &database);
                assert_eq!(got.first_mismatch(&fastid), None, "identity_search {run}");
            }
        });
        s.spawn(|| {
            for run in 0..50 {
                let got = CpuEngine::new().ld_self(&panel);
                assert_eq!(got.first_mismatch(&ld), None, "ld_self {run}");
            }
        });
    });
}
