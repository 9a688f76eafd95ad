//! Property tests of the throughput-critical CPU paths.
//!
//! The production microkernel, the scalar oracle, and the bit-level
//! reference must agree on arbitrary inputs (all three operators, every
//! `k % CSA_BLOCK` remainder, padded panels), the parallel tile
//! schedule must be bit-identical to the sequential loop nest on both the
//! paper's problem shapes (square LD, wide FastID) and on ragged ones, and
//! the symmetric LD path must equal the reference self-comparison.

use proptest::prelude::*;
use snp_bitmat::{
    reference_gamma, reference_gamma_self, BitMatrix, CompareOp, CountMatrix, PackedPanels,
};
use snp_cpu::blocking::{MR, NR};
use snp_cpu::gemm::gamma_blocked_into;
use snp_cpu::microkernel::{microkernel, microkernel_scalar, zero_tile, BView};
use snp_cpu::parallel::gamma_parallel_into;
use snp_cpu::{
    gamma_parallel_into_traced, gamma_self_symmetric, CpuBlocking, CpuEngine, ParallelSchedule,
};
use snp_trace::{ArgValue, Tracer};

/// A blocking small enough that property-sized problems span several cache
/// blocks in every dimension (forcing many tiles and several `k_c` steps).
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
        microkernel_scalar(op, pa.k(), pa.panel(0), BView::packed(pb.panel(0)), &mut oracle);
        prop_assert_eq!(fast, oracle, "production vs scalar, op {}, k_bits {}", op, k_bits);
        let want = reference_gamma(&a, &b, op);
        for (i, lane) in fast.iter().enumerate().take(rows_a) {
            for (j, &got) in lane.iter().enumerate().take(rows_b) {
                prop_assert_eq!(got, want.get(i, j), "vs reference at ({}, {})", i, j);
            }
        }
    }

    /// The parallel tile schedule equals the sequential loop nest and the
    /// reference on every shape class: m up to three row blocks, n ragged
    /// against NR (n < NR included), several k_c blocks, all operators.
    /// Both write γ once (β = 0): they start from garbage and must
    /// overwrite every cell, and with k_c = 2 every case stores its first
    /// block and adds the rest.
    #[test]
    fn parallel_matches_blocked_and_reference(
        m in 1usize..=3 * 2 * MR,
        n in 1usize..=9 * NR + 3,
        k_bits in 1usize..=64 * 7,
        op_idx in 0usize..3,
        seed in any::<u32>(),
    ) {
        let op = CompareOp::ALL[op_idx];
        let mix = |r: usize, c: usize, salt: u32| {
            (r as u32).wrapping_mul(0x9E37_79B9) ^ (c as u32).wrapping_mul(0x85EB_CA6B) ^ salt
        };
        let a = BitMatrix::<u64>::from_fn(m, k_bits, |r, c| mix(r, c, seed) % 5 < 2);
        let b = BitMatrix::<u64>::from_fn(n, k_bits, |r, c| mix(r, c, !seed) % 3 == 0);
        let poison: Vec<u32> = (0..m * n).map(|i| u32::MAX ^ i as u32).collect();
        let blocking = tiny_blocking();

        let mut seq = CountMatrix::from_vec(m, n, poison.clone());
        gamma_blocked_into(&a, &b, op, &blocking, &mut seq);
        let mut par = CountMatrix::from_vec(m, n, poison);
        gamma_parallel_into(&a, &b, op, &blocking, &mut par);
        let want = reference_gamma(&a, &b, op);
        prop_assert_eq!(seq.first_mismatch(&want), None, "sequential vs reference, op {}", op);
        prop_assert_eq!(par.first_mismatch(&want), None, "parallel vs reference, op {}", op);
    }

    /// A FastID shape (up to 32 query rows against a wide database) fans
    /// out to at least one tile per thread, the tiles' widths differ by at
    /// most NR, and the result is bit-identical to the sequential one.
    #[test]
    fn fastid_shape_fans_out_near_equal_tiles(
        queries in bitmat(1usize..=32, 260),
        db_rows in 200usize..400,
        op_idx in 0usize..3,
    ) {
        let op = CompareOp::ALL[op_idx];
        let db = BitMatrix::<u64>::from_fn(db_rows, 260, |r, c| (r * 7 + c * 13) % 4 == 0);
        let blocking = CpuBlocking::default();
        let mut want = CountMatrix::zeros(queries.rows(), db_rows);
        gamma_blocked_into(&queries, &db, op, &blocking, &mut want);
        let mut got = CountMatrix::zeros(queries.rows(), db_rows);
        let tracer = Tracer::enabled();
        let stats = gamma_parallel_into_traced(
            &queries, &db, op, &blocking, &mut got, ParallelSchedule::Auto, &tracer,
        );
        prop_assert!(
            stats.tasks >= rayon::current_num_threads(),
            "FastID shape must fan out, got {} task(s)", stats.tasks
        );
        let widths: Vec<u64> = tracer
            .snapshot()
            .expect("tracer is enabled")
            .events_in_cat("task")
            .map(|e| match e.args.iter().find(|(k, _)| *k == "cols") {
                Some((_, ArgValue::U64(w))) => *w,
                other => panic!("task span lacks cols: {other:?}"),
            })
            .collect();
        prop_assert_eq!(widths.len(), stats.tasks);
        let (lo, hi) = (*widths.iter().min().unwrap(), *widths.iter().max().unwrap());
        prop_assert!(hi - lo <= NR as u64, "tile widths {:?}", widths);
        prop_assert_eq!(got.first_mismatch(&want), None);
    }

    /// `ld_self` equals the reference AND self-comparison, and so does XOR
    /// through `gamma_self_symmetric` with tiles that straddle the diagonal
    /// block's edge. m runs from empty to five row blocks of
    /// m_c = 2·MR: each case takes `blocks · m_c` plus every offset in
    /// {0, 1, NR − 1, NR + 1, m_c − 1}, so m % m_c ∈ {0, 1, m_c − 1} and
    /// m % NR ≠ 0 come up in every case, and `blocks = 0` gives m < NR; k
    /// spans up to five k_c blocks.
    #[test]
    fn ld_self_matches_reference_on_both_schedules(
        blocks in 0usize..=5,
        k_bits in 1usize..=64 * 9,
        seed in any::<u32>(),
    ) {
        let m_c = tiny_blocking().m_c;
        let mix = |r: usize, c: usize| {
            (r as u32).wrapping_mul(0x9E37_79B9) ^ (c as u32).wrapping_mul(0x85EB_CA6B) ^ seed
        };
        let straddling = CpuBlocking { k_c: 3, n_c: 3 * NR, ..tiny_blocking() };
        for off in [0, 1, NR - 1, NR + 1, m_c - 1] {
            let m = blocks * m_c + off;
            if m > 5 * m_c {
                continue;
            }
            let a = BitMatrix::<u64>::from_fn(m, k_bits, |r, c| mix(r, c) % 5 < 2);
            let want = reference_gamma_self(&a, CompareOp::And);
            let got = CpuEngine::new().with_blocking(tiny_blocking()).ld_self(&a);
            prop_assert_eq!(got.first_mismatch(&want), None, "m {}, k_bits {}", m, k_bits);
            let want = reference_gamma_self(&a, CompareOp::Xor);
            let got = gamma_self_symmetric(&a, CompareOp::Xor, &straddling);
            prop_assert_eq!(got.first_mismatch(&want), None, "XOR, m {}, k_bits {}", m, k_bits);
        }
    }
}
