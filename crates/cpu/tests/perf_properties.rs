//! Property tests of the throughput-critical CPU paths.
//!
//! The production microkernel, the scalar oracle, and the bit-level
//! reference must agree on arbitrary inputs (all three operators, every
//! `k % CSA_BLOCK` remainder, padded panels), and both shape-aware parallel schedules must
//! be bit-identical to the sequential loop nest on both the paper's problem
//! shapes (square LD, wide FastID).

use proptest::prelude::*;
use snp_bitmat::{reference_gamma, BitMatrix, CompareOp, CountMatrix, PackedPanels};
use snp_cpu::blocking::{MR, NR};
use snp_cpu::gemm::gamma_blocked_into;
use snp_cpu::microkernel::{microkernel, microkernel_scalar, zero_tile};
use snp_cpu::parallel::gamma_parallel_into_scheduled;
use snp_cpu::{CpuBlocking, ParallelSchedule};

/// A blocking small enough that property-sized problems span several cache
/// blocks in every dimension (forcing multi-task schedules).
fn tiny_blocking() -> CpuBlocking {
    CpuBlocking {
        m_r: MR,
        n_r: NR,
        k_c: 2,
        m_c: 2 * MR,
        n_c: 2 * NR,
    }
}

fn bitmat(
    rows: impl Strategy<Value = usize>,
    cols: usize,
) -> impl Strategy<Value = BitMatrix<u64>> {
    rows.prop_flat_map(move |r| {
        prop::collection::vec(prop::collection::vec(any::<bool>(), cols), r)
            .prop_map(|rows| BitMatrix::from_bool_rows(&rows))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Production path == scalar oracle == reference, including padded
    /// panel lanes (fewer logical rows than MR/NR) and every k remainder
    /// class.
    #[test]
    fn production_equals_scalar_equals_reference(
        rows_a in 1usize..=MR,
        rows_b in 1usize..=NR,
        k_bits in 1usize..1100,
        op_idx in 0usize..3,
        seed in any::<u32>(),
    ) {
        let op = CompareOp::ALL[op_idx];
        let mix = |r: usize, c: usize, salt: u32| {
            (r as u32).wrapping_mul(0x9E37_79B9)
                ^ (c as u32).wrapping_mul(0x85EB_CA6B)
                ^ salt
        };
        let a = BitMatrix::<u64>::from_fn(rows_a, k_bits, |r, c| mix(r, c, seed) % 5 < 2);
        let b = BitMatrix::<u64>::from_fn(rows_b, k_bits, |r, c| mix(r, c, !seed) % 3 == 0);
        let pa = PackedPanels::pack_all(&a, MR);
        let pb = PackedPanels::pack_all(&b, NR);
        let mut fast = zero_tile();
        microkernel(op, pa.k(), pa.panel(0), pb.panel(0), &mut fast);
        let mut oracle = zero_tile();
        microkernel_scalar(op, pa.k(), pa.panel(0), pb.panel(0), &mut oracle);
        prop_assert_eq!(fast, oracle, "production vs scalar, op {}, k_bits {}", op, k_bits);
        let want = reference_gamma(&a, &b, op);
        for (i, lane) in fast.iter().enumerate().take(rows_a) {
            for (j, &got) in lane.iter().enumerate().take(rows_b) {
                prop_assert_eq!(got, want.get(i, j), "vs reference at ({}, {})", i, j);
            }
        }
    }

    /// Both explicit schedules and Auto match the sequential loop nest on
    /// square (LD-like) problems.
    #[test]
    fn parallel_schedules_match_sequential_on_square(
        a in bitmat(33usize..90, 300),
        op_idx in 0usize..3,
    ) {
        let op = CompareOp::ALL[op_idx];
        let blocking = tiny_blocking();
        let mut want = CountMatrix::zeros(a.rows(), a.rows());
        gamma_blocked_into(&a, &a, op, &blocking, &mut want);
        for schedule in [
            ParallelSchedule::Auto,
            ParallelSchedule::RowBlocks,
            ParallelSchedule::ColumnStrips,
        ] {
            let mut got = CountMatrix::zeros(a.rows(), a.rows());
            let stats = gamma_parallel_into_scheduled(&a, &a, op, &blocking, &mut got, schedule);
            prop_assert_eq!(
                got.first_mismatch(&want), None,
                "{:?} diverged from sequential", stats.schedule
            );
            prop_assert!(stats.tasks >= 1);
        }
    }

    /// FastID shapes (a handful of query rows against a wide database) must
    /// resolve Auto to the column-strip schedule, actually fan out to more
    /// than one task, and stay bit-identical to the sequential result.
    #[test]
    fn fastid_shape_fans_out_column_strips(
        queries in bitmat(1usize..=32, 260),
        db_rows in 200usize..400,
        op_idx in 0usize..3,
    ) {
        let op = CompareOp::ALL[op_idx];
        let db = BitMatrix::<u64>::from_fn(db_rows, 260, |r, c| (r * 7 + c * 13) % 4 == 0);
        let blocking = tiny_blocking();
        let mut want = CountMatrix::zeros(queries.rows(), db_rows);
        gamma_blocked_into(&queries, &db, op, &blocking, &mut want);
        let mut got = CountMatrix::zeros(queries.rows(), db_rows);
        let stats = gamma_parallel_into_scheduled(
            &queries, &db, op, &blocking, &mut got, ParallelSchedule::Auto,
        );
        prop_assert_eq!(stats.schedule, ParallelSchedule::ColumnStrips);
        prop_assert!(stats.tasks > 1, "FastID shape must fan out, got {} task(s)", stats.tasks);
        prop_assert_eq!(got.first_mismatch(&want), None);
    }
}
