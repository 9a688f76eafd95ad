//! The traced run. It times the workload's own ops twice — untraced, then
//! with a span around every program call — and then calls each layer's
//! public functions from here, under spans, to produce the per-layer
//! metrics. Spans come only from this file: the program is not
//! instrumented. The Chrome trace and self-time table are written to
//! `.bench_out/` in the checkout.

use std::any::Any;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use snp_bitmat::{BitMatrix, CompareOp, CountMatrix, PackedPanels};
use snp_core::{
    compare_op, config_for, execute_gamma, execute_gamma_mma, group_geometry, tile_program,
    GpuEngine, KernelPlan, MixtureStrategy,
};
use snp_cpu::blocking::{MR, NR};
use snp_cpu::{gamma_parallel_into_traced, CpuBlocking, ParallelSchedule};
use snp_gpu_model::{devices, Algorithm, ProblemShape};
use snp_gpu_sim::{macro_engine::timing_cache_stats, simulate_core, Gpu};
use snp_load::{run_query, CostModel, CostScale, LoadConfig, Template, WorkloadSet};

use crate::measure::{timed_loop, Budget};
use crate::record::popcount_roof;
use crate::spans::Recorder;
use crate::stats::median;
use crate::workloads::{
    ld_panel, serve_config, SimPaper, Workload, ALGORITHMS, LD_SAMPLES, LD_SNPS, PAPER_PROFILES,
    PROFILE_SHAPE, SERVE_QUERIES,
};
use crate::{set_up, Metric, Outcome};

/// Share of `--seconds` given to each of the untraced and traced phases;
/// the layer probes use the rest.
const PHASE_SHARE: f64 = 0.4;
/// Cycle budget for one detailed-engine tile job (`snpgpu profile`'s).
const DETAILED_BUDGET: u64 = 500_000_000;
/// The serve chunk shape: the `WorkloadSet` LD panel, 48 SNPs × 256
/// haplotypes, in 32-bit device words.
const SERVE_SHAPE: ProblemShape = ProblemShape {
    m: 48,
    n: 48,
    k_words: 8,
};
/// The paper chunk shape: the sim-paper LD cell, 1024 SNPs × 4096
/// haplotypes, in 32-bit device words.
const PAPER_SHAPE: ProblemShape = ProblemShape {
    m: 1024,
    n: 1024,
    k_words: 128,
};

/// Calls `f` `reps` times, each under a span named `name`, and returns the
/// median span duration in ns together with the last result.
fn timed<T>(r: &mut Recorder, name: &str, reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut last = None;
    let mut ns = Vec::with_capacity(reps);
    for _ in 0..reps {
        let (out, d) = r.span(name, None, |_| f());
        ns.push(d as f64);
        last = Some(out);
    }
    (median(&ns), last.expect("reps >= 1"))
}

/// The traced run of one workload.
pub fn traced<W: Workload + 'static>(
    seconds: f64,
    seed: u64,
    label: &str,
    make: &dyn Fn() -> W,
) -> Result<Outcome, String> {
    let cache_before = timing_cache_stats();
    let mut r = Recorder::default();
    let s = set_up(make);
    let mut w = s.w;
    w.prepare_oracle();
    let mut attempted = 1;
    let mut failed = usize::from(w.check(0, &s.first).is_err());
    drop(s.first);

    // Untraced, then traced, in the same process and state.
    let phase = Budget {
        seconds: seconds * PHASE_SHARE,
        min_ops: w.cycle_len(),
    };
    let untraced = timed_loop(&mut w, 1, phase, |_, _| {});
    attempted += untraced.attempted();
    failed += untraced.failed;
    let first = 1 + untraced.attempted();
    let t_end = Instant::now() + std::time::Duration::from_secs_f64(phase.seconds);
    let mut i = first;
    while Instant::now() < t_end || !(i - first).is_multiple_of(w.cycle_len()) {
        let (out, _) = r.span("op", Some(i), |r| w.op_traced(r, i));
        attempted += 1;
        failed += usize::from(w.check(i, &out).is_err());
        i += 1;
    }
    let traced_ms: Vec<f64> = r.durations("op").iter().map(|ns| ns / 1e6).collect();
    let untraced_p50 = median(&untraced.op_ms);
    let traced_p50 = median(&traced_ms);

    let mut m = vec![
        Metric::new("bench.op_p50_untraced_ms", untraced_p50, "ms"),
        Metric::new("bench.op_p50_traced_ms", traced_p50, "ms"),
        Metric::new(
            "bench.trace_overhead_pct",
            100.0 * (traced_p50 - untraced_p50) / untraced_p50,
            "%",
        ),
    ];

    let roof = popcount_roof();
    m.push(Metric::new("roof.popcount_per_s", roof.per_s, "word-op/s"));
    match w.cpu_operands() {
        Some((a, b, op)) => m.extend(probe_cpu(&mut r, a, b, op, roof.per_s)),
        None => {
            let p = ld_panel(seed, LD_SNPS, LD_SAMPLES);
            m.extend(probe_cpu(&mut r, &p, &p, CompareOp::And, roof.per_s));
        }
    }
    m.push(probe_rayon(&mut r));
    let (cells, cell_ops, cell_failures) = match (&mut w as &mut dyn Any).downcast_mut::<SimPaper>()
    {
        Some(own) => {
            let next_cycle = (first + traced_ms.len()).next_multiple_of(own.cycle_len());
            probe_cells(&mut r, own, next_cycle)
        }
        None => {
            let mut sp = SimPaper::setup(seed, LD_SNPS, LD_SAMPLES, PAPER_PROFILES);
            sp.prepare_oracle();
            probe_cells(&mut r, &mut sp, 0)
        }
    };
    attempted += cell_ops;
    failed += cell_failures;
    m.extend(cells);
    m.extend(probe_sim(&mut r));
    m.extend(probe_load(&mut r, &serve_config(seed, SERVE_QUERIES)));
    let cache = timing_cache_stats();
    let hits = cache.hits - cache_before.hits;
    let lookups = hits + cache.misses - cache_before.misses;
    m.push(Metric::new(
        "sim.timing_cache.hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    ));

    let log = write_trace(&r, label)?;
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m,
        log,
    })
}

/// Writes the Chrome trace (validated by the program's own validator) and
/// the self-time table to `.bench_out/`.
fn write_trace(r: &Recorder, label: &str) -> Result<Vec<String>, String> {
    let json = r.chrome_json(label);
    let stats = snp_trace::chrome::validate(&json).map_err(|e| format!("trace invalid: {e}"))?;
    let dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let trace = dir.join(format!("trace-{label}.json"));
    let table = dir.join(format!("self-time-{label}.txt"));
    std::fs::write(&trace, &json).map_err(|e| format!("write {}: {e}", trace.display()))?;
    let text = r.self_time_table();
    std::fs::write(&table, &text).map_err(|e| format!("write {}: {e}", table.display()))?;
    Ok(vec![
        format!(
            "chrome trace: {} ({} slices, valid)",
            trace.display(),
            stats.slices
        ),
        format!("self-time table: {}\n{text}", table.display()),
    ])
}

/// snp-cpu and snp-bitmat layers on one GEMM's operands.
fn probe_cpu(
    r: &mut Recorder,
    a: &BitMatrix<u64>,
    b: &BitMatrix<u64>,
    op: CompareOp,
    roof: f64,
) -> Vec<Metric> {
    let blocking = CpuBlocking::default();
    let (m, n, k) = (a.rows(), b.rows(), a.words_per_row());
    let gemm_ops = (m * n * k) as f64;
    let (seq_ns, _) = r
        .span("probe.cpu.gemm", None, |r| {
            timed(r, "cpu.gemm.gamma_blocked_into", 3, || {
                let mut c = CountMatrix::zeros(m, n);
                snp_cpu::gemm::gamma_blocked_into(a, b, op, &blocking, &mut c);
                c
            })
        })
        .0;

    // The pack calls of one sequential GEMM, in its loop order.
    let (pack_ns, pack_bytes) = r
        .span("probe.cpu.pack", None, |r| {
            let mut bytes = 0usize;
            let mut ns = 0u64;
            for jc in (0..n).step_by(blocking.n_c) {
                let jn = (jc + blocking.n_c).min(n);
                for pc in (0..k).step_by(blocking.k_c) {
                    let pk = (pc + blocking.k_c).min(k);
                    let (p, d) = r.span("cpu.pack.PackedPanels::pack", None, |_| {
                        PackedPanels::pack(b, jc, jn, pc, pk, NR)
                    });
                    bytes += p.as_slice().len() * 8;
                    ns += d;
                    for ic in (0..m).step_by(blocking.m_c) {
                        let im = (ic + blocking.m_c).min(m);
                        let (p, d) = r.span("cpu.pack.PackedPanels::pack", None, |_| {
                            PackedPanels::pack(a, ic, im, pc, pk, MR)
                        });
                        bytes += p.as_slice().len() * 8;
                        ns += d;
                    }
                }
            }
            (ns as f64, bytes as f64)
        })
        .0;

    let (par_ns, (stats, task_ns)) = r
        .span("probe.cpu.parallel", None, |r| {
            timed(r, "cpu.parallel.gamma_parallel_into_traced", 3, || {
                let tracer = snp_trace::Tracer::enabled();
                let mut c = CountMatrix::zeros(m, n);
                let stats = gamma_parallel_into_traced(
                    a,
                    b,
                    op,
                    &blocking,
                    &mut c,
                    ParallelSchedule::Auto,
                    &tracer,
                );
                let tasks: Vec<f64> = tracer
                    .snapshot()
                    .map(|t| {
                        t.events_in_cat("task")
                            .map(|e| e.duration_ns() as f64)
                            .collect()
                    })
                    .unwrap_or_default();
                (stats, tasks)
            })
        })
        .0;
    let mean_task = task_ns.iter().sum::<f64>() / task_ns.len().max(1) as f64;
    let max_task = task_ns.iter().copied().fold(0.0, f64::max);

    // The microkernel on one MR × k and one NR × k packed panel (L1-resident).
    let kk = k.min(blocking.k_c);
    let ap = PackedPanels::pack(a, 0, MR.min(m), 0, kk, MR);
    let bp = PackedPanels::pack(b, 0, NR.min(n), 0, kk, NR);
    const CALLS: usize = 4096;
    let (mk_ns, _) = r
        .span("probe.cpu.microkernel", None, |r| {
            timed(r, "cpu.microkernel.microkernel", 5, || {
                let mut acc = snp_cpu::microkernel::zero_tile();
                for _ in 0..CALLS {
                    snp_cpu::microkernel::microkernel(
                        op,
                        kk,
                        black_box(ap.panel(0)),
                        black_box(bp.panel(0)),
                        &mut acc,
                    );
                }
                black_box(acc)
            })
        })
        .0;
    let mk_rate = (CALLS * MR * NR * kk) as f64 / (mk_ns * 1e-9);
    let gemm_rate = gemm_ops / (seq_ns * 1e-9);
    vec![
        Metric::new("cpu.microkernel.word_ops_per_s", mk_rate, "word-op/s"),
        Metric::new("cpu.microkernel.roof_pct", 100.0 * mk_rate / roof, "%"),
        Metric::new("cpu.pack.bytes_per_s", pack_bytes / (pack_ns * 1e-9), "B/s"),
        Metric::new("cpu.pack.share_pct", 100.0 * pack_ns / seq_ns, "%"),
        Metric::new("cpu.gemm.word_ops_per_s", gemm_rate, "word-op/s"),
        Metric::new("cpu.gemm.roof_pct", 100.0 * gemm_rate / roof, "%"),
        Metric::new("cpu.parallel.speedup", seq_ns / par_ns, "x"),
        Metric::new("cpu.parallel.tasks", stats.tasks as f64, "count"),
        Metric::new("cpu.parallel.a_packs", stats.a_packs as f64, "count"),
        Metric::new(
            "cpu.parallel.imbalance_pct",
            100.0 * (max_task / mean_task.max(1.0) - 1.0),
            "%",
        ),
    ]
}

/// The rayon shim: one 2-item `par_chunks_mut` region.
fn probe_rayon(r: &mut Recorder) -> Metric {
    use rayon::prelude::*;
    const REGIONS: usize = 100;
    let mut buf = [0u32; 2];
    let (ns, _) = r
        .span("probe.rayon", None, |r| {
            timed(r, "rayon.par_chunks_mut", 5, || {
                for _ in 0..REGIONS {
                    buf.par_chunks_mut(1)
                        .enumerate()
                        .for_each(|(i, c)| c[0] = i as u32);
                }
                black_box(buf)
            })
        })
        .0;
    Metric::new("rayon.region_us", ns / 1e3 / REGIONS as f64, "us")
}

/// One cycle of the 12 sim-paper cells: wall time per cell, the detailed
/// engine's share, and every cell's modeled outputs. Returns the metrics,
/// the ops run and the ops that failed their check.
fn probe_cells(r: &mut Recorder, sp: &mut SimPaper, first: usize) -> (Vec<Metric>, usize, usize) {
    let mut m = Vec::new();
    let mut failed = 0;
    let (mut det_ns, mut det_cycles) = (0u64, 0u64);
    let before = r.spans().len();
    r.span("probe.sim.cells", None, |r| {
        for c in 0..sp.cycle_len() {
            let i = first + c;
            let (out, ns) = r.span("op", Some(i), |r| sp.op_traced(r, i));
            failed += usize::from(sp.check(i, &out).is_err());
            m.push(Metric::new(
                format!("core.cell_ms.{}", sp.cell_label(i)),
                ns as f64 / 1e6,
                "ms",
            ));
            let (d, a) = sp.cell(i);
            let dev = sp.engines[d].spec().clone();
            let alg = ALGORITHMS[a];
            let cfg = config_for(&dev, alg, PROFILE_SHAPE);
            let prog = tile_program(
                &dev,
                &cfg,
                compare_op(alg, MixtureStrategy::Direct),
                PROFILE_SHAPE.k_words,
            );
            let groups = group_geometry(&dev, &cfg).groups_per_core;
            let (res, ns) = r.span("sim.detailed.simulate_core", None, |_| {
                simulate_core(&dev, &prog, groups, DETAILED_BUDGET)
            });
            det_ns += ns;
            det_cycles += res.map_or(0, |d| d.cycles);
        }
    });
    let profile_ns: u64 = r.spans()[before..]
        .iter()
        .filter(|s| s.name == "core.profile_cell")
        .map(|s| s.ns())
        .sum();
    m.push(Metric::new(
        "sim.detailed.cycles_per_s",
        det_cycles as f64 / (det_ns as f64 * 1e-9),
        "cycle/s",
    ));
    m.push(Metric::new(
        "sim.detailed.share_pct",
        100.0 * det_ns as f64 / profile_ns.max(1) as f64,
        "%",
    ));
    for (c, (kernel, busy)) in sp.cell_virt().into_iter().enumerate() {
        let label = sp.cell_label(c);
        m.push(Metric::new(
            format!("virt.kernel_ns.{label}"),
            kernel as f64,
            "virt-ns",
        ));
        m.push(Metric::new(
            format!("virt.busy_ns.{label}"),
            busy as f64,
            "virt-ns",
        ));
    }
    (m, sp.cycle_len(), failed)
}

/// snp-core and snp-gpu-sim layers at the serve and paper chunk shapes.
fn probe_sim(r: &mut Recorder) -> Vec<Metric> {
    let dev = devices::titan_v();
    let alg = Algorithm::LinkageDisequilibrium;
    let cfg = config_for(&dev, alg, SERVE_SHAPE);
    let op = CompareOp::And;
    let s = SERVE_SHAPE;
    const PLANS: usize = 200;
    let (plan_ns, plan) = r
        .span("probe.sim.plan", None, |r| {
            timed(r, "sim.KernelPlan::new", 5, || {
                let mut last = None;
                for _ in 0..PLANS {
                    last = Some(KernelPlan::new(&dev, &cfg, op, s.m, s.n, s.k_words));
                }
                last.expect("PLANS >= 1")
            })
        })
        .0;
    let plan_us = plan_ns / 1e3 / PLANS as f64;

    // Host commands at serve chunk sizes: write A, write B, a kernel with
    // an empty body, and a blocking read of C.
    const ROUNDS: usize = 100;
    let (cmd_ns, _) = r
        .span("probe.sim.host", None, |r| {
            timed(r, "sim.host.commands", 5, || {
                let gpu = Gpu::new(dev.clone());
                let q = gpu.create_queue();
                let words = s.m * s.k_words;
                let buffer = |n| gpu.create_buffer(n).expect("buffer");
                let (ba, bb, bc) = (buffer(words), buffer(words), buffer(s.m * s.n));
                let data = vec![0x5555_5555u32; words];
                let mut out = vec![0u32; s.m * s.n];
                for _ in 0..ROUNDS {
                    let e1 = gpu.enqueue_write(q, ba, 0, &data, &[]).expect("write");
                    let e2 = gpu.enqueue_write(q, bb, 0, &data, &[]).expect("write");
                    let k = gpu
                        .enqueue_kernel(q, &plan.cost(), &[ba, bb], bc, &[e1, e2], |_, _| {})
                        .expect("kernel");
                    let _ = gpu
                        .enqueue_read(q, bc, 0, &mut out, &[k], true)
                        .expect("read");
                }
                black_box(out)
            })
        })
        .0;
    let command_us = cmd_ns / 1e3 / (4 * ROUNDS) as f64;

    let frag = devices::tc100()
        .matrix_unit
        .expect("tc100 has a matrix unit");
    let mut m = vec![
        Metric::new("sim.plan_us", plan_us, "us"),
        Metric::new("sim.host.command_us", command_us, "us"),
    ];
    let mut exec_serve_us = 0.0;
    for (label, shape, reps) in [("serve", SERVE_SHAPE, 2000), ("paper", PAPER_SHAPE, 3)] {
        let a = vec![0x0F0F_3C3Cu32; shape.m * shape.k_words];
        let b = vec![0x3333_F00Fu32; shape.n * shape.k_words];
        let mut c = vec![0u32; shape.m * shape.n];
        let calls = if label == "serve" { 20 } else { 1 };
        let ops = (shape.m * shape.n * shape.k_words * calls) as f64;
        let (exec_ns, _) = r
            .span(&format!("probe.core.exec.{label}"), None, |r| {
                timed(r, "core.execute_gamma", reps / calls, || {
                    for _ in 0..calls {
                        execute_gamma(op, &a, &b, &mut c, shape.m, shape.n, shape.k_words);
                    }
                    black_box(c[0])
                })
            })
            .0;
        let (mma_ns, _) = r
            .span(&format!("probe.core.exec_mma.{label}"), None, |r| {
                timed(r, "core.execute_gamma_mma", reps / calls, || {
                    for _ in 0..calls {
                        execute_gamma_mma(
                            &frag,
                            op,
                            &a,
                            &b,
                            &mut c,
                            shape.m,
                            shape.n,
                            shape.k_words,
                        );
                    }
                    black_box(c[0])
                })
            })
            .0;
        if label == "serve" {
            exec_serve_us = exec_ns / 1e3 / calls as f64;
        }
        m.push(Metric::new(
            format!("core.exec.word_ops_per_s.{label}"),
            ops / (exec_ns * 1e-9),
            "word32-op/s",
        ));
        m.push(Metric::new(
            format!("core.exec_mma.word_ops_per_s.{label}"),
            ops / (mma_ns * 1e-9),
            "word32-op/s",
        ));
    }

    // GpuEngine::compare on the serve LD panel, against the layer calls it
    // makes: one plan, one functional kernel, and four host commands.
    let panel = ld_panel(1, SERVE_SHAPE.m, 256);
    let engine = GpuEngine::new(dev.clone());
    let (cmp_ns, _) = r
        .span("probe.core.compare", None, |r| {
            timed(r, "core.GpuEngine::compare", 50, || {
                engine.compare(&panel, &panel, alg).expect("fault-free run")
            })
        })
        .0;
    let cmp_us = cmp_ns / 1e3;
    let layers_us = plan_us + exec_serve_us + 4.0 * command_us;
    m.push(Metric::new(
        "core.compare_overhead_pct",
        100.0 * (cmp_us - layers_us) / cmp_us,
        "%",
    ));
    m
}

/// snp-load layers on the sim-serve stream.
fn probe_load(r: &mut Recorder, cfg: &LoadConfig) -> Vec<Metric> {
    let mut m = Vec::new();
    let (build_ns, set) = r
        .span("probe.load.build", None, |r| {
            timed(r, "load.WorkloadSet::build", 5, || {
                WorkloadSet::build(cfg.seed)
            })
        })
        .0;
    let (cal_ns, _) = r
        .span("probe.load.calibrate", None, |r| {
            timed(r, "load.CostModel::calibrate", 5, || {
                CostModel::calibrate(&cfg.device, &set, CostScale::default())
            })
        })
        .0;
    m.push(Metric::new("load.workload_build_ms", build_ns / 1e6, "ms"));
    m.push(Metric::new("load.calibrate_ms", cal_ns / 1e6, "ms"));

    let engine = GpuEngine::new(cfg.device.clone());
    let mut query_us = Vec::new();
    for t in [
        Template::Ld,
        Template::FastId,
        Template::FastIdTopK,
        Template::Mixture,
    ] {
        let slug = match t {
            Template::FastIdTopK => "fastid-topk",
            other => other.slug(),
        };
        let (ns, _) = r
            .span(&format!("probe.load.query.{slug}"), None, |r| {
                timed(r, "load.run_query", 30, || {
                    run_query(t, &engine, &set).expect("fault-free query")
                })
            })
            .0;
        query_us.push((t, ns / 1e3));
        m.push(Metric::new(format!("load.query_us.{slug}"), ns / 1e3, "us"));
    }

    // Replays with each observation layer off and on, interleaved.
    let variant = |timeline: bool, anatomy: bool| LoadConfig {
        record_timeline: timeline,
        anatomy,
        ..cfg.clone()
    };
    let plain = variant(false, false);
    let with_timeline = variant(true, false);
    let with_anatomy = variant(false, true);
    let (mut off, mut tl, mut an) = (Vec::new(), Vec::new(), Vec::new());
    let mut report = None;
    r.span("probe.load.replays", None, |r| {
        for _ in 0..5 {
            let (rep, ns) = r.span("load.run[plain]", None, |_| snp_load::run(&plain));
            off.push(ns as f64);
            report = Some(rep);
            tl.push(
                r.span("load.run[timeline]", None, |_| {
                    snp_load::run(&with_timeline)
                })
                .1 as f64,
            );
            an.push(
                r.span("load.run[anatomy]", None, |_| snp_load::run(&with_anatomy))
                    .1 as f64,
            );
        }
    });
    let report = report.expect("five replays");
    let queries = cfg.queries as f64;
    let executed_us: f64 = report
        .records
        .iter()
        .filter(|q| !q.outcome.is_shed() && q.tier != snp_load::Tier::CpuOnly)
        .map(|q| {
            query_us
                .iter()
                .find(|(t, _)| *t == q.template)
                .map_or(0.0, |&(_, us)| us)
        })
        .sum();
    let run_us = median(&off) / 1e3;
    let runner_us = run_us - executed_us - (build_ns + cal_ns) / 1e3;
    m.push(Metric::new(
        "load.runner_us_per_query",
        runner_us / queries,
        "us",
    ));
    m.push(Metric::new(
        "load.shed_frac",
        report.admission.as_ref().map_or(0.0, |a| a.shed_fraction),
        "ratio",
    ));
    m.push(Metric::new(
        "trace.timeline_us_per_query",
        (median(&tl) - median(&off)) / 1e3 / queries,
        "us",
    ));
    m.push(Metric::new(
        "load.anatomy_us_per_query",
        (median(&an) - median(&off)) / 1e3 / queries,
        "us",
    ));
    m
}
