//! The parallel GEMM's registry counters, in a test binary of their own.
//!
//! The counters are process-wide and every parallel GEMM bumps them, so the
//! exact-delta assertion below holds only while no other test in the same
//! process runs one between its reads. Each integration-test file is its own
//! process, and this one holds a single test.

use snp_bitmat::{BitMatrix, CompareOp, CountMatrix};
use snp_cpu::blocking::{MR, NR};
use snp_cpu::{
    gamma_parallel_into_traced, CpuBlocking, ParallelSchedule, PARALLEL_A_PACKS_METRIC,
    PARALLEL_RUNS_METRIC, PARALLEL_TASKS_METRIC,
};
use snp_trace::Tracer;

fn matrix(rows: usize, cols: usize, salt: usize) -> BitMatrix<u64> {
    BitMatrix::from_fn(rows, cols, |r, c| (r * 41 + c * 13 + salt) % 5 < 2)
}

fn blocking_small() -> CpuBlocking {
    CpuBlocking {
        m_r: MR,
        n_r: NR,
        k_c: 3,
        m_c: 2 * MR,
        n_c: 3 * NR,
    }
}

#[test]
fn runs_feed_the_metrics_registry() {
    let a = matrix(3 * MR, 300, 10);
    let b = matrix(4 * NR, 300, 11);
    let reg = snp_trace::registry();
    let runs0 = reg.counter(PARALLEL_RUNS_METRIC).get();
    let tasks0 = reg.counter(PARALLEL_TASKS_METRIC).get();
    let packs0 = reg.counter(PARALLEL_A_PACKS_METRIC).get();
    let mut c = CountMatrix::zeros(a.rows(), b.rows());
    let stats = gamma_parallel_into_traced(
        &a,
        &b,
        CompareOp::Xor,
        &blocking_small(),
        &mut c,
        ParallelSchedule::Auto,
        &Tracer::disabled(),
    );
    assert_eq!(reg.counter(PARALLEL_RUNS_METRIC).get(), runs0 + 1);
    assert_eq!(
        reg.counter(PARALLEL_TASKS_METRIC).get(),
        tasks0 + stats.tasks as u64
    );
    assert_eq!(
        reg.counter(PARALLEL_A_PACKS_METRIC).get(),
        packs0 + stats.a_packs as u64
    );
}
