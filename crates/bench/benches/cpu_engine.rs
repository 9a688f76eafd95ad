//! Criterion benches of the *real* BLIS-style CPU engine (`snp-cpu`) on the
//! host machine: the runnable counterpart of the paper's \[11\] baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use snp_bitmat::{CompareOp, CountMatrix, PackedPanels};
use snp_cpu::blocking::{MR, NR};
use snp_cpu::microkernel::{microkernel, microkernel_scalar, zero_tile, BView};
use snp_cpu::parallel::gamma_parallel_into;
use snp_cpu::{CpuBlocking, CpuEngine};
use snp_popgen::random_dense;
use std::hint::black_box;

fn word_ops(m: usize, n: usize, bits: usize) -> u64 {
    (m * n * bits.div_ceil(64)) as u64
}

fn bench_microkernel(c: &mut Criterion) {
    let mut g = c.benchmark_group("cpu/microkernel");
    let k_bits = 64 * 512;
    let a = random_dense(MR, k_bits, 1);
    let b = random_dense(NR, k_bits, 2);
    let pa = PackedPanels::pack_all(&a, MR);
    let pb = PackedPanels::pack_all(&b, NR);
    g.throughput(Throughput::Elements((MR * NR * pa.k()) as u64));
    // The popcount ablation on identical panels: one popcount per word
    // ("scalar") against `microkernel`, the one-panel case of the
    // production panel run, on the host's detected tier ("simd"; the id
    // predates the tiers and is kept so the rows pair with earlier
    // snapshots).
    for op in CompareOp::ALL {
        g.bench_function(BenchmarkId::new("simd", op), |bench| {
            bench.iter(|| {
                let mut acc = zero_tile();
                microkernel(
                    op,
                    pa.k(),
                    black_box(pa.panel(0)),
                    black_box(pb.panel(0)),
                    &mut acc,
                );
                black_box(acc)
            })
        });
        g.bench_function(BenchmarkId::new("scalar", op), |bench| {
            bench.iter(|| {
                let mut acc = zero_tile();
                microkernel_scalar(
                    op,
                    pa.k(),
                    black_box(pa.panel(0)),
                    BView::packed(black_box(pb.panel(0))),
                    &mut acc,
                );
                black_box(acc)
            })
        });
    }
    g.finish();
}

fn bench_schedules(c: &mut Criterion) {
    // The parallel tile schedule on the paper's two shapes.
    let mut g = c.benchmark_group("cpu/schedule");
    g.sample_size(10);
    let blocking = CpuBlocking::default_params();
    let cases = [
        (
            "fastid_32xwide",
            random_dense(32, 1024, 6),
            random_dense(8192, 1024, 7),
        ),
        (
            "ld_square",
            random_dense(512, 1024, 8),
            random_dense(512, 1024, 9),
        ),
    ];
    for (name, a, b) in &cases {
        g.throughput(Throughput::Elements(word_ops(a.rows(), b.rows(), 1024)));
        g.bench_function(*name, |bench| {
            bench.iter(|| {
                let mut cmat = CountMatrix::zeros(a.rows(), b.rows());
                gamma_parallel_into(
                    black_box(a),
                    black_box(b),
                    CompareOp::Xor,
                    &blocking,
                    &mut cmat,
                );
                black_box(cmat)
            })
        });
    }
    g.finish();
    // Scheduling behavior is aggregated process-wide in the metrics registry
    // (cpu.parallel.*) instead of hand-plumbing `ParallelStats` out of every
    // call site.
    for (name, value) in snp_trace::registry().snapshot() {
        if name.starts_with("cpu.parallel.") {
            eprintln!("{name} = {value:?}");
        }
    }
}

fn bench_engine_square(c: &mut Criterion) {
    let mut g = c.benchmark_group("cpu/ld_square");
    g.sample_size(10);
    for snps in [256usize, 512, 1024] {
        let samples = 4096;
        let panel = random_dense(snps, samples, 3);
        g.throughput(Throughput::Elements(word_ops(snps, snps, samples)));
        g.bench_with_input(BenchmarkId::new("parallel", snps), &panel, |bench, p| {
            let e = CpuEngine::new();
            bench.iter(|| black_box(e.ld_self(black_box(p))))
        });
        g.bench_with_input(BenchmarkId::new("sequential", snps), &panel, |bench, p| {
            let e = CpuEngine::sequential();
            bench.iter(|| black_box(e.ld_self(black_box(p))))
        });
    }
    g.finish();
}

fn bench_engine_fastid_shape(c: &mut Criterion) {
    let mut g = c.benchmark_group("cpu/fastid_shape");
    g.sample_size(10);
    let queries = random_dense(32, 1024, 4);
    for profiles in [10_000usize, 40_000] {
        let db = random_dense(profiles, 1024, 5);
        g.throughput(Throughput::Elements(word_ops(32, profiles, 1024)));
        g.bench_with_input(BenchmarkId::from_parameter(profiles), &db, |bench, db| {
            let e = CpuEngine::new();
            bench.iter(|| black_box(e.identity_search(black_box(&queries), black_box(db))))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_microkernel,
    bench_schedules,
    bench_engine_square,
    bench_engine_fastid_shape
);
criterion_main!(benches);
