//! Multithreaded blocked popcount-GEMM on one tile schedule.
//!
//! \[11\] parallelizes the loops around the microkernel. Splitting only the
//! `ic` (row-block) loop works for square LD problems but starves on
//! FastID-shaped ones: a handful of query rows against millions of
//! database profiles is a single `m_c` block, and therefore a single task.
//! So every shape runs on one schedule, the [`crate::gemm`] loop nest with
//! more tiles: γ is cut into tiles of `m_c` rows × NR-aligned columns, at
//! least four per thread, so a square problem splits by rows and a wide
//! one by columns. Ã is packed once per `pc` before the parallel region;
//! each task then reads B in place and writes straight into its own row
//! segments of γ, storing its first `k_c` block and adding the rest. There
//! is no per-task buffer, no zero-fill before the region and no writeback
//! after the join: the tiles partition γ and each writes all of its cells,
//! so a fresh γ ([`gamma_parallel`]) is allocated uninitialized, and
//! [`gamma_parallel_into`] overwrites its output.
//!
//! The result is bit-identical to the sequential path: every `γ` cell is a
//! sum of `u32` tile contributions, and integer addition is associative
//! and commutative, so neither the loop order nor the task boundaries are
//! observable in the output.

use std::mem::MaybeUninit;

use rayon::prelude::*;
use snp_bitmat::{BitMatrix, CompareOp, CountMatrix};
use snp_trace::{Metrics, TimeDomain, Tracer};

use crate::blocking::CpuBlocking;
use crate::gemm::{check_shapes, fresh, overwrite, pack_a, run_tile, tiles};

/// Tiles per worker thread: enough that the dynamic hand-out evens out
/// tiles of unequal cost.
const TILES_PER_THREAD: usize = 4;

/// How the parallel GEMM splits its work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelSchedule {
    /// The tile schedule: at least four tiles per thread, cut from the
    /// problem's shape. It is the only schedule.
    Auto,
}

/// What the scheduler actually did — exposed so tests and benches can assert
/// on parallelization behavior rather than only on timing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParallelStats {
    /// Number of independent parallel tasks (tiles of γ).
    pub tasks: usize,
    /// Number of `Ã` block packs performed: one per `m_c` row block and
    /// `k_c` step, however many tiles share it.
    pub a_packs: usize,
}

impl ParallelStats {
    /// Counts this run on `metrics`: one `cpu.parallel.runs`, its tasks
    /// on `cpu.parallel.tasks` and its packs on `cpu.parallel.a_packs`.
    pub fn record(&self, metrics: &mut Metrics) {
        metrics.add("cpu.parallel.runs", 1);
        metrics.add("cpu.parallel.tasks", self.tasks as u64);
        metrics.add("cpu.parallel.a_packs", self.a_packs as u64);
    }
}

/// Parallel version of [`crate::gemm::gamma_blocked_into`]: overwrites
/// `c` with results bit-identical to the sequential path.
pub fn gamma_parallel_into(
    a: &BitMatrix<u64>,
    b: &BitMatrix<u64>,
    op: CompareOp,
    blocking: &CpuBlocking,
    c: &mut CountMatrix,
) {
    let _ = gamma_parallel_into_traced(
        a,
        b,
        op,
        blocking,
        c,
        ParallelSchedule::Auto,
        &Tracer::disabled(),
    );
}

/// Like [`gamma_parallel_into`], returning what was run, with per-task
/// wall-clock spans recorded on `tracer` (a no-op for a disabled tracer).
pub fn gamma_parallel_into_traced(
    a: &BitMatrix<u64>,
    b: &BitMatrix<u64>,
    op: CompareOp,
    blocking: &CpuBlocking,
    c: &mut CountMatrix,
    schedule: ParallelSchedule,
    tracer: &Tracer,
) -> ParallelStats {
    let ParallelSchedule::Auto = schedule;
    check_shapes(a, b, (c.rows(), c.cols()), blocking);
    // SAFETY: the tiles write only counts into `c`.
    run_tiles(
        a,
        b,
        op,
        blocking,
        unsafe { overwrite(c.as_mut_slice()) },
        tracer,
    )
}

/// Runs every tile of `c`, a row-major `a.rows() × b.rows()` γ, on the
/// rayon pool.
pub(crate) fn run_tiles(
    a: &BitMatrix<u64>,
    b: &BitMatrix<u64>,
    op: CompareOp,
    blocking: &CpuBlocking,
    c: &mut [MaybeUninit<u32>],
    tracer: &Tracer,
) -> ParallelStats {
    if a.rows() == 0 || b.rows() == 0 {
        return ParallelStats::default();
    }
    let track = tracer.track("cpu parallel", TimeDomain::Wall);
    let run = tracer.begin_span(track, "run", "parallel gamma", tracer.wall_now_ns());
    let a_packs = pack_a(a, blocking);
    let tiles = tiles(c, b.rows(), blocking, min_tiles(), false);
    let stats = ParallelStats {
        tasks: tiles.len(),
        a_packs: a_packs.iter().map(Vec::len).sum(),
    };
    tiles.into_par_iter().for_each(|mut tile| {
        let t0 = tracer.wall_now_ns();
        run_tile(op, &a_packs, b, &mut tile);
        if tracer.is_enabled() {
            tracer.span_with(
                track,
                "task",
                format!("tile {}@{}", tile.blk, tile.jc),
                t0,
                tracer.wall_now_ns(),
                vec![
                    ("rows", (tile.rows.len() as u64).into()),
                    ("cols", (tile.n_blk as u64).into()),
                ],
            );
        }
    });
    tracer.end_span_with(
        run,
        tracer.wall_now_ns(),
        vec![
            ("tasks", (stats.tasks as u64).into()),
            ("a_packs", (stats.a_packs as u64).into()),
        ],
    );
    stats
}

/// The fewest tiles a parallel run cuts: [`TILES_PER_THREAD`] for each
/// worker thread.
pub(crate) fn min_tiles() -> usize {
    TILES_PER_THREAD * rayon::current_num_threads()
}

/// [`gamma_parallel_into`] into a fresh output, which is never
/// zero-filled.
pub fn gamma_parallel(
    a: &BitMatrix<u64>,
    b: &BitMatrix<u64>,
    op: CompareOp,
    blocking: &CpuBlocking,
) -> CountMatrix {
    check_shapes(a, b, (a.rows(), b.rows()), blocking);
    // SAFETY: the tiles partition γ, and each tile writes all of its cells.
    unsafe {
        fresh(a.rows(), b.rows(), |c| {
            run_tiles(a, b, op, blocking, c, &Tracer::disabled());
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocking::{MR, NR};
    use crate::gemm::{gamma_blocked, gamma_blocked_into};
    use snp_bitmat::reference_gamma;
    use snp_trace::ArgValue;

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

    /// Runs the traced entry and returns its stats with each task span's
    /// `(rows, cols)`.
    fn traced(
        a: &BitMatrix<u64>,
        b: &BitMatrix<u64>,
        blocking: &CpuBlocking,
        c: &mut CountMatrix,
    ) -> (ParallelStats, Vec<(u64, u64)>) {
        let tracer = Tracer::enabled();
        let stats = gamma_parallel_into_traced(
            a,
            b,
            CompareOp::Xor,
            blocking,
            c,
            ParallelSchedule::Auto,
            &tracer,
        );
        let arg = |e: &snp_trace::TraceEvent, key| match e.args.iter().find(|(k, _)| *k == key) {
            Some((_, ArgValue::U64(v))) => *v,
            other => panic!("task span lacks {key}: {other:?}"),
        };
        let shapes = tracer
            .snapshot()
            .expect("tracer is enabled")
            .events_in_cat("task")
            .map(|e| (arg(e, "rows"), arg(e, "cols")))
            .collect();
        (stats, shapes)
    }

    #[test]
    fn parallel_matches_sequential_and_reference() {
        let a = matrix(3 * MR + 5, 700, 0);
        let b = matrix(5 * NR + 2, 700, 1);
        for op in CompareOp::ALL {
            let par = gamma_parallel(&a, &b, op, &blocking_small());
            let seq = gamma_blocked(&a, &b, op, &blocking_small());
            let want = reference_gamma(&a, &b, op);
            assert_eq!(par.first_mismatch(&seq), None, "op {op}: par vs seq");
            assert_eq!(par.first_mismatch(&want), None, "op {op}: par vs reference");
        }
    }

    #[test]
    fn tile_schedule_matches_sequential_on_every_shape() {
        // Square-ish, wide (FastID-like), tall, single-row and narrower
        // than one panel: all bit-identical to the sequential loop nest.
        let shapes = [
            (3 * MR + 5, 5 * NR + 2),
            (5, 40 * NR),
            (60, 7),
            (1, 90),
            (9, NR - 1),
        ];
        for (m, n) in shapes {
            let a = matrix(m, 450, m);
            let b = matrix(n, 450, n + 1);
            for op in CompareOp::ALL {
                let seq = gamma_blocked(&a, &b, op, &blocking_small());
                let par = gamma_parallel(&a, &b, op, &blocking_small());
                assert_eq!(
                    par.first_mismatch(&seq),
                    None,
                    "tiles vs sequential on {m}x{n}, op {op}"
                );
            }
        }
    }

    #[test]
    fn fastid_shape_cuts_enough_tiles_of_near_equal_width() {
        // 32 queries × many profiles: one m_c block, so the tiles are
        // column ranges, at least one per thread and within NR of each
        // other in width.
        let a = matrix(32, 320, 0);
        let b = matrix(40 * NR + 3, 320, 1);
        let blocking = CpuBlocking::default();
        let mut c = CountMatrix::zeros(a.rows(), b.rows());
        let (stats, shapes) = traced(&a, &b, &blocking, &mut c);
        assert!(
            stats.tasks >= rayon::current_num_threads(),
            "FastID shape must fan out, got {stats:?}"
        );
        assert_eq!(shapes.len(), stats.tasks);
        let widths: Vec<u64> = shapes
            .iter()
            .map(|&(rows, cols)| {
                assert_eq!(rows, 32, "one row block");
                cols
            })
            .collect();
        let (lo, hi) = (widths.iter().min().unwrap(), widths.iter().max().unwrap());
        assert!(hi - lo <= NR as u64, "widths {widths:?}");
        assert_eq!(widths.iter().sum::<u64>(), b.rows() as u64);
        let want = reference_gamma(&a, &b, CompareOp::Xor);
        assert_eq!(c.first_mismatch(&want), None);
    }

    #[test]
    fn square_shape_cuts_every_row_block_alike() {
        // Many row blocks: each row block is cut into the same column
        // ranges, and there are at least as many tiles as threads.
        let a = matrix(12 * MR + 3, 256, 2);
        let b = matrix(12 * NR, 256, 3);
        let blocking = CpuBlocking {
            n_c: 64 * NR,
            ..blocking_small()
        };
        let mut c = CountMatrix::zeros(a.rows(), b.rows());
        let (stats, shapes) = traced(&a, &b, &blocking, &mut c);
        let row_blocks = a.rows().div_ceil(blocking.m_c);
        assert!(stats.tasks >= rayon::current_num_threads());
        assert_eq!(stats.tasks % row_blocks, 0, "{stats:?}");
        let rows: u64 = shapes.iter().map(|&(r, _)| r).sum();
        let per_block = (stats.tasks / row_blocks) as u64;
        assert_eq!(rows, a.rows() as u64 * per_block);
        let want = reference_gamma(&a, &b, CompareOp::Xor);
        assert_eq!(c.first_mismatch(&want), None);
    }

    #[test]
    fn a_pack_cache_packs_each_block_once_per_pc() {
        // 2 m_c row blocks × 4 k_c blocks = 8 packs however many column
        // tiles share each row block.
        let a = matrix(4 * MR, 64 * 12, 4);
        let b = matrix(9 * NR, 64 * 12, 5);
        let mut c = CountMatrix::zeros(a.rows(), b.rows());
        let (stats, _) = traced(&a, &b, &blocking_small(), &mut c);
        let pc_steps = 12usize.div_ceil(3);
        let row_blks = (4 * MR).div_ceil(2 * MR);
        assert_eq!(stats.a_packs, row_blks * pc_steps);
        assert!(stats.tasks > row_blks, "{stats:?}");
    }

    #[test]
    fn traced_run_records_wall_clock_task_spans() {
        let a = matrix(32, 320, 12);
        let b = matrix(10 * NR, 320, 13);
        let tracer = snp_trace::Tracer::enabled();
        let mut c = CountMatrix::zeros(a.rows(), b.rows());
        let stats = gamma_parallel_into_traced(
            &a,
            &b,
            CompareOp::Xor,
            &blocking_small(),
            &mut c,
            ParallelSchedule::Auto,
            &tracer,
        );
        let trace = tracer.snapshot().expect("tracer is enabled");
        let run: Vec<_> = trace.events_in_cat("run").collect();
        assert_eq!(run.len(), 1);
        assert_eq!(
            trace.track(run[0].track).domain,
            snp_trace::TimeDomain::Wall
        );
        let tasks: Vec<_> = trace.events_in_cat("task").collect();
        assert_eq!(tasks.len(), stats.tasks);
        for t in &tasks {
            assert!(
                t.start_ns >= run[0].start_ns && t.end_ns <= run[0].end_ns,
                "task span must nest inside the run span"
            );
        }
    }

    #[test]
    fn parallel_is_deterministic() {
        let a = matrix(100, 512, 2);
        let b = matrix(64, 512, 3);
        let x = gamma_parallel(&a, &b, CompareOp::Xor, &CpuBlocking::default());
        let y = gamma_parallel(&a, &b, CompareOp::Xor, &CpuBlocking::default());
        assert_eq!(x.first_mismatch(&y), None);
    }

    #[test]
    fn handles_fewer_rows_than_one_block() {
        let a = matrix(2, 128, 4);
        let b = matrix(300, 128, 5);
        let par = gamma_parallel(&a, &b, CompareOp::And, &CpuBlocking::default());
        let want = reference_gamma(&a, &b, CompareOp::And);
        assert_eq!(par.first_mismatch(&want), None);
    }

    /// A γ that holds no counts: every cell differs from its neighbours
    /// and from any count these tests produce.
    fn poisoned(m: usize, n: usize) -> CountMatrix {
        CountMatrix::from_vec(m, n, (0..m * n).map(|i| u32::MAX ^ i as u32).collect())
    }

    #[test]
    fn overwrites_like_sequential() {
        let a = matrix(20, 256, 6);
        let b = matrix(20, 256, 7);
        let mut c = poisoned(20, 20);
        gamma_parallel_into(&a, &b, CompareOp::And, &blocking_small(), &mut c);
        let mut seq = poisoned(20, 20);
        gamma_blocked_into(&a, &b, CompareOp::And, &blocking_small(), &mut seq);
        assert_eq!(c.first_mismatch(&seq), None);
        gamma_parallel_into(&a, &b, CompareOp::Xor, &blocking_small(), &mut c);
        let want_xor = reference_gamma(&a, &b, CompareOp::Xor);
        assert_eq!(c.first_mismatch(&want_xor), None);
    }

    #[test]
    fn wide_tiles_overwrite_existing_output() {
        let a = matrix(8, 200, 8);
        let b = matrix(120, 200, 9);
        let mut c = poisoned(8, 120);
        let want = reference_gamma(&a, &b, CompareOp::AndNot);
        for _ in 0..2 {
            gamma_parallel_into(&a, &b, CompareOp::AndNot, &blocking_small(), &mut c);
            assert_eq!(c.first_mismatch(&want), None);
        }
    }
}
