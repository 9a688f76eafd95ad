//! The `snpgpu` subcommands. Each returns its report as a `String` so the
//! command layer is directly testable.

use std::fmt::Write as _;

use snp_bitmat::{reference_gamma, BitMatrix};
use snp_core::{
    compare_op, config_for, Algorithm, CpuModel, EngineError, EngineOptions, ExecMode, FaultPlan,
    FaultProfile, GpuEngine, KernelPlan, Lowering, MixtureStrategy, RecoverySummary,
};
use snp_cpu::microkernel::Tier;
use snp_cpu::CpuEngine;
use snp_gpu_model::config::ProblemShape;
use snp_gpu_model::peak::peak;
use snp_gpu_model::{devices, DeviceSpec, InstrClass, WordOpKind};
use snp_microbench::recover_parameters;
use snp_popgen::forensic::{
    generate_database, generate_mixtures, generate_queries, DatabaseConfig,
};
use snp_popgen::ld_stats::ld_pair;
use snp_popgen::population::{generate_panel, PanelConfig};
use snp_popgen::IdentityScorer;

use crate::args::{algorithm_selection, algorithm_slug, device_selection, ArgError, Args};

/// Top-level usage text.
pub const USAGE: &str = "\
snpgpu — portable SNP comparisons on simulated GPUs

USAGE: snpgpu <command> [--option value]...

COMMANDS:
  devices                      list modeled devices (Table I summary)
  config    --device D --algorithm ld|search|mixture [--m N --n N --snps N]
                               show the derived kernel configuration
  microbench --device D        recover hardware parameters (§V-C/§V-D)
  ld        --device D [--snps N --samples N --seed S]
                               LD scan on a synthetic panel
  search    --device D [--profiles N --snps N --queries N --noise F --seed S]
                               FastID identity search with planted queries
  mixture   --device D [--profiles N --snps N --contributors K --seed S]
                               FastID mixture analysis
  cpu       [--snps N --samples N --seed S]
                               run the real multithreaded CPU engine (wall time)
  trace     --algo ld|fastid|mixture [--device D --out F --summary F ...]
                               run a workload with tracing on; write a Chrome
                               trace_event JSON timeline (open in Perfetto or
                               chrome://tracing) plus a text summary
  lint      [ld|fastid|mixture|all] [--device D|all --json F --deep]
                               statically verify the command DAG (race
                               detection) and the planned kernel (ISA and
                               capacity lints); nonzero findings fail.
                               --deep adds the dataflow layer: trip-sensitive
                               def-use (V110), dead writes (V111), live-range
                               register pressure (V112), the static
                               critical-path cost bound (V113), and
                               scalar-vs-MMA cross-lowering checks (V114)
  chaos     [ld|fastid|mixture|all] [--device D|all --profile P|all --seed S --json F]
                               fault-injection matrix: run every algorithm x
                               device x fault-profile cell on a memory-shrunk
                               device and compare against the fault-free
                               oracle; any silent corruption fails (exit 5)
  profile   [ld|fastid|mixture|all] [--device D|all --m N --n N --snps N --json F]
                               per-kernel hardware counters (FU utilization,
                               bank-conflict replays, achieved bandwidth,
                               occupancy), roofline classification, and the
                               three-way analytic/static/detailed drift
                               table; any out-of-tolerance cell fails
  loadgen   [ld|fastid|mixture|all] [--device D --rate Q --queries N --seed S
            --arrival poisson|bursty --mode run|sweep|chaos --slo-p50-ms X
            --slo-p99-ms X --error-budget F --fault-profile P --fault-at Q
            --admission --deadline-slack X --shed-budget F --queue-cap N
            --flight-capacity N --anatomy --json F --trace F --flight F]
                               replay a seeded open-loop query stream against
                               the engine, judge per-algorithm latency SLOs
                               (exit 6 on breach), write slo-report.json,
                               a query-attributed Chrome timeline, and a
                               flight-recorder post-mortem; --admission turns
                               on per-tenant quotas, deadline-aware (EDF +
                               weighted-fair) scheduling, typed load shedding
                               (exit 7 past the shed budget), and brownout
                               degradation; --mode sweep steps offered load
                               and reports the latency-vs-throughput knee;
                               --mode chaos runs the combined overload+fault
                               matrix (bursty 8x load, device loss mid-run,
                               admission on) and fails on any silent
                               corruption; --anatomy appends the per-query
                               latency-anatomy table (percentile bands x
                               named critical-path segments) to the report
  whatif    [ld|fastid|mixture|all] [--device D --rate Q --queries N --seed S
            --arrival poisson|bursty --admission --deadline-slack X
            --shed-budget F --queue-cap N
            --perturb kernel:F,transfer:F,slack:F,sched --json F]
                               causal what-if profiling: replay the same
                               seeded stream once per perturbation with that
                               component's virtual cost rescaled, rank the
                               perturbations by accepted-p99 leverage, then
                               confirm the winner with an independent replay
                               under different observation settings (exit 1
                               if prediction and replay disagree by over 5%)
  metrics   [ld|fastid|mixture|all] [--device D --seed S --queries N --out F]
                               run a small seeded load and dump the live
                               metrics registry in Prometheus text format

Fault profiles: none, transient, corruption, stall, loss, mixed.
ld / search / mixture also accept --fault-profile P [--fault-seed S] to run
under fault injection (P may also be loss@N: lose the device at command N);
a run that finishes on the CPU fallback exits 2. loadgen accepts the same
profiles (--fault-at Q arms the plan only for query Q).
Devices: gtx-980, titan-v, vega-64, tc100 (case- and separator-insensitive).

EXIT CODES: 0 success, 1 usage/planning error, 2 degraded success (device
lost, finished on CPU), 3 command-stream hazard, 4 unrecovered device fault,
5 silent corruption detected by the chaos oracle, 6 SLO breach reported by
loadgen, 7 admission shed budget exceeded (see README \"Exit codes\").";

/// The CLI's exit-code taxonomy (DESIGN.md §10, README "Exit codes") — one
/// enum, one meaning per code. Hazards, typed device faults, degraded
/// completions, chaos-detected silent corruption, SLO breaches, and
/// admission shed-budget overruns are all distinguishable by scripts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ExitCode {
    /// Clean success.
    Ok = 0,
    /// Usage, planning, or I/O error.
    Error = 1,
    /// The run completed but degraded (device lost, CPU fallback finished).
    Degraded = 2,
    /// The race detector found an ordering hazard.
    Hazard = 3,
    /// A typed device fault survived all recovery attempts.
    Fault = 4,
    /// The chaos oracle caught silently corrupted results.
    Corruption = 5,
    /// `loadgen` judged a latency objective or error budget breached.
    SloBreach = 6,
    /// Admission shed more of the offered load than the shed budget allows.
    ShedBudgetExceeded = 7,
}

impl ExitCode {
    /// The process exit status this code maps to.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Severity rank for combining overload-chaos cells: silent corruption
    /// dominates, then a blown shed budget, then a latency breach. This is
    /// deliberately *not* the numeric code order — corruption (5) outranks
    /// shed-budget (7).
    fn overload_severity(self) -> u8 {
        match self {
            ExitCode::Corruption => 3,
            ExitCode::ShedBudgetExceeded => 2,
            ExitCode::SloBreach => 1,
            _ => 0,
        }
    }
}

/// A command's report text plus its process exit code.
#[derive(Debug, Clone)]
pub struct CmdReport {
    /// Human-readable report for stdout.
    pub text: String,
    /// Process exit code (see [`ExitCode`]).
    pub exit: ExitCode,
}

/// A command failure: printable message plus its exit code.
#[derive(Debug, Clone)]
pub struct CliError {
    /// Message for stderr.
    pub message: String,
    /// Process exit code (see [`ExitCode`]).
    pub exit: ExitCode,
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError {
            message: e.to_string(),
            exit: ExitCode::Error,
        }
    }
}

/// Maps an engine error to its exit code: hazards, typed device faults, and
/// everything else are distinct.
fn engine_exit(e: &EngineError) -> ExitCode {
    if e.is_hazard() {
        ExitCode::Hazard
    } else if e.device_fault().is_some() {
        ExitCode::Fault
    } else {
        ExitCode::Error
    }
}

/// Converts an engine error into a CLI failure with the matching exit code.
fn engine_err(e: EngineError) -> CliError {
    CliError {
        exit: engine_exit(&e),
        message: e.to_string(),
    }
}

fn device_arg(args: &Args) -> Result<DeviceSpec, ArgError> {
    let name = args.get_or("device", "Titan V");
    devices::by_name(name)
        .filter(|d| d.shared_mem_bytes > 0)
        .ok_or_else(|| ArgError(format!("unknown GPU device {name:?} (try: snpgpu devices)")))
}

/// Dispatches a parsed command line, returning text only (exit codes
/// collapse to generic failure). Prefer [`run_full`] in binaries.
pub fn run(args: &Args) -> Result<String, ArgError> {
    match run_full(args) {
        Ok(report) if report.exit == ExitCode::Ok || report.exit == ExitCode::Degraded => {
            Ok(report.text)
        }
        Ok(report) => Err(ArgError(report.text)),
        Err(e) => Err(ArgError(e.message)),
    }
}

/// Dispatches a parsed command line with the full exit-code taxonomy.
pub fn run_full(args: &Args) -> Result<CmdReport, CliError> {
    let simple = |r: Result<String, ArgError>| -> Result<CmdReport, CliError> {
        Ok(CmdReport {
            text: r?,
            exit: ExitCode::Ok,
        })
    };
    match args.command.as_deref() {
        Some("devices") => simple(cmd_devices(args)),
        Some("config") => simple(cmd_config(args)),
        Some("microbench") => simple(cmd_microbench(args)),
        Some("ld") => cmd_ld(args),
        Some("search") => cmd_search(args),
        Some("mixture") => cmd_mixture(args),
        Some("cpu") => simple(cmd_cpu(args)),
        Some("trace") => simple(cmd_trace(args)),
        Some("lint") => simple(cmd_lint(args)),
        Some("chaos") => cmd_chaos(args),
        Some("profile") => cmd_profile(args),
        Some("loadgen") => cmd_loadgen(args),
        Some("whatif") => cmd_whatif(args),
        Some("metrics") => simple(cmd_metrics(args)),
        Some(other) => Err(CliError {
            message: format!("unknown command {other:?}\n\n{USAGE}"),
            exit: ExitCode::Error,
        }),
        None => simple(Ok(USAGE.to_string())),
    }
}

fn cmd_devices(args: &Args) -> Result<String, ArgError> {
    args.expect_only(&[])?;
    let mut out = String::new();
    for d in devices::all_devices() {
        let pk = peak(&d, WordOpKind::And);
        let mma = match (&d.matrix_unit, d.n_fn(InstrClass::Mma)) {
            (Some(mu), Some(lanes)) => format!(
                ", mma x{lanes} ({}x{}x{}b, {:.0} G word-ops/s)",
                mu.frag_m,
                mu.frag_n,
                mu.frag_k_bits,
                snp_gpu_model::peak::matrix_unit_peak(&d, WordOpKind::And)
                    .map_or(0.0, |p| p.word_ops_per_sec / 1e9),
            ),
            _ => String::new(),
        };
        let _ = writeln!(
            out,
            "{:<18} {:<12} {:>3} cores x {} clusters, {}-thread {}s, popc x{} (L={}), peak {:.0} G word-ops/s{}",
            d.name,
            d.microarchitecture,
            d.n_cores,
            d.n_clusters,
            d.n_t,
            d.thread_group_term(),
            d.n_fn(InstrClass::Popc).unwrap(),
            d.l_fn,
            pk.word_ops_per_sec / 1e9,
            mma,
        );
    }
    Ok(out)
}

fn algorithm_arg(args: &Args) -> Result<Algorithm, ArgError> {
    match args.get_or("algorithm", "ld") {
        "ld" => Ok(Algorithm::LinkageDisequilibrium),
        "search" => Ok(Algorithm::IdentitySearch),
        "mixture" => Ok(Algorithm::MixtureAnalysis),
        other => Err(ArgError(format!(
            "unknown algorithm {other:?} (ld|search|mixture)"
        ))),
    }
}

fn cmd_config(args: &Args) -> Result<String, ArgError> {
    args.expect_only(&["device", "algorithm", "m", "n", "snps"])?;
    let dev = device_arg(args)?;
    let alg = algorithm_arg(args)?;
    let m = args.get_size("m", 10_000)?;
    let n = args.get_size("n", 10_000)?;
    let snps = args.get_size("snps", 10_000)?;
    let shape = ProblemShape {
        m,
        n,
        k_words: snps.div_ceil(32),
    };
    let cfg = config_for(&dev, alg, shape);
    let mut out = String::new();
    let _ = writeln!(out, "device:    {} ({})", dev.name, dev.microarchitecture);
    let _ = writeln!(out, "algorithm: {}", alg.name());
    let _ = writeln!(
        out,
        "problem:   {m} x {n} over {snps} SNP-string bits ({} device words)",
        shape.k_words
    );
    let _ = writeln!(out, "m_c = {:<5} (A tile rows in shared memory)", cfg.m_c);
    let _ = writeln!(out, "m_r = {:<5} (register rows; Eq. 4: N_vec)", cfg.m_r);
    let _ = writeln!(out, "k_c = {:<5} (shared-memory depth; Eq. 6)", cfg.k_c);
    let _ = writeln!(out, "n_r = {:<5} (register columns; Eq. 7 bounds)", cfg.n_r);
    let _ = writeln!(
        out,
        "core grid = {} x {} (third x second loop)",
        cfg.grid_m, cfg.grid_n
    );
    let _ = writeln!(
        out,
        "thread groups per cluster = {} (= L_fn)",
        cfg.groups_per_cluster
    );
    Ok(out)
}

fn cmd_microbench(args: &Args) -> Result<String, ArgError> {
    args.expect_only(&["device"])?;
    let dev = device_arg(args)?;
    let r = recover_parameters(&dev);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "recovered parameters for {} (dependent chains + group sweeps):",
        dev.name
    );
    for (class, lat) in &r.latency {
        let units = r.units_for(*class).unwrap();
        let _ = writeln!(
            out,
            "  {class:<6} latency {lat:>5.2} cycles, {units:>2} units/cluster"
        );
    }
    let shared: Vec<String> = r
        .shared_pairs
        .iter()
        .map(|(a, b)| format!("{a}+{b}"))
        .collect();
    let _ = writeln!(
        out,
        "  shared pipelines: {}",
        if shared.is_empty() {
            "none".into()
        } else {
            shared.join(", ")
        }
    );
    Ok(out)
}

/// Parses the optional `--fault-profile NAME [--fault-seed S]` pair shared
/// by the workload commands into an armed [`FaultPlan`].
fn fault_args(args: &Args) -> Result<Option<FaultPlan>, ArgError> {
    let Some(name) = args.get("fault-profile") else {
        return Ok(None);
    };
    // `loss@N` pins device loss at host command N (the bare `loss` preset
    // loses the device at command 9, which short runs may never reach).
    let profile = if let Some(at) = name.strip_prefix("loss@") {
        let at: u64 = at
            .parse()
            .map_err(|_| ArgError(format!("bad command index in {name:?}")))?;
        FaultProfile {
            device_loss_at: Some(at),
            ..FaultProfile::none()
        }
    } else {
        FaultProfile::by_name(name).ok_or_else(|| {
            ArgError(format!(
                "unknown fault profile {name:?} (expected one of: {}, or loss@N)",
                FaultProfile::NAMES.join(", ")
            ))
        })?
    };
    let seed = args.get_parse("fault-seed", 42u64)?;
    Ok(Some(FaultPlan::new(seed, profile)))
}

/// Folds a run's recovery summary into the report: appends the summary
/// line when a plan was armed and downgrades the exit to `DEGRADED` when
/// the run finished on the CPU fallback.
fn finish_workload(mut text: String, recovery: Option<&RecoverySummary>) -> CmdReport {
    let mut exit = ExitCode::Ok;
    if let Some(rec) = recovery {
        use std::fmt::Write as _;
        let _ = writeln!(text, "{}", rec.render_line());
        if rec.degraded() {
            exit = ExitCode::Degraded;
        }
    }
    CmdReport { text, exit }
}

fn cmd_ld(args: &Args) -> Result<CmdReport, CliError> {
    args.expect_only(&[
        "device",
        "snps",
        "samples",
        "seed",
        "fault-profile",
        "fault-seed",
    ])?;
    let dev = device_arg(args)?;
    let snps = args.get_size("snps", 256)?;
    let samples = args.get_size("samples", 2048)?;
    let seed = args.get_parse("seed", 42u64)?;
    let panel = generate_panel(
        &PanelConfig {
            snps,
            samples,
            ..Default::default()
        },
        seed,
    );
    let mut engine = GpuEngine::new(dev.clone());
    if let Some(plan) = fault_args(args)? {
        engine = engine.with_fault_plan(plan);
    }
    let run = engine.ld_self(&panel.matrix).map_err(engine_err)?;
    let gamma = run.gamma.expect("full mode");
    // Strongest off-diagonal pair.
    let mut best = (0usize, 1usize, -1.0f64);
    for a in 0..snps {
        for b in (a + 1)..snps {
            let r2 = ld_pair(&gamma, samples, a, b).r2;
            if r2 > best.2 {
                best = (a, b, r2);
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "LD scan: {snps} SNPs x {samples} haplotypes on {}",
        dev.name
    );
    let _ = writeln!(
        out,
        "modeled end-to-end {:.2} ms (kernel {:.3} ms, {} pass(es))",
        run.timing.end_to_end_ns as f64 / 1e6,
        run.timing.kernel_ns as f64 / 1e6,
        run.passes
    );
    let _ = writeln!(
        out,
        "strongest pair: SNP {} ~ SNP {} with r² = {:.3}",
        best.0, best.1, best.2
    );
    Ok(finish_workload(out, run.recovery.as_ref()))
}

fn cmd_search(args: &Args) -> Result<CmdReport, CliError> {
    args.expect_only(&[
        "device",
        "profiles",
        "snps",
        "queries",
        "noise",
        "seed",
        "fault-profile",
        "fault-seed",
    ])?;
    let dev = device_arg(args)?;
    let profiles = args.get_size("profiles", 10_000)?;
    let snps = args.get_size("snps", 512)?;
    let queries = args.get_size("queries", 8)?;
    let noise = args.get_parse("noise", 0.01f64)?;
    let seed = args.get_parse("seed", 42u64)?;
    let db = generate_database(
        &DatabaseConfig {
            profiles,
            snps,
            ..Default::default()
        },
        seed,
    );
    let planted = queries.div_ceil(2);
    let qs = generate_queries(&db, queries, planted, noise, seed + 1);
    let mut engine = GpuEngine::new(dev.clone());
    if let Some(plan) = fault_args(args)? {
        engine = engine.with_fault_plan(plan);
    }
    let run = engine
        .identity_search(&qs.queries, &db.profiles)
        .map_err(engine_err)?;
    let gamma = run.gamma.expect("full mode");
    let scorer = IdentityScorer::new(db.site_maf.clone(), noise.max(1e-4));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "identity search: {queries} queries vs {profiles} profiles x {snps} SNPs on {} ({:.2} ms end-to-end, {} pass(es))",
        dev.name,
        run.timing.end_to_end_ns as f64 / 1e6,
        run.passes
    );
    for q in 0..queries {
        let best = gamma.argmin_in_row(q).unwrap();
        let d = gamma.get(q, best);
        let lr = scorer.log_lr(d);
        let verdict = if lr > 0.0 { "MATCH" } else { "no match" };
        let truth = match qs.truth[q] {
            Some(t) if t == best => " [planted: correct]",
            Some(_) => " [planted: WRONG PROFILE]",
            None => " [non-member]",
        };
        let _ = writeln!(
            out,
            "  query {q}: profile {best} at {d} differences, log LR {lr:>8.1} -> {verdict}{truth}"
        );
    }
    Ok(finish_workload(out, run.recovery.as_ref()))
}

/// `--contributors`: each contributor is a distinct database profile, so
/// there can be at most `profiles` of them.
fn contributors_arg(args: &Args, default: usize, profiles: usize) -> Result<usize, ArgError> {
    let contributors = args.get_size("contributors", default)?;
    if contributors > profiles {
        return Err(ArgError(format!(
            "--contributors ({contributors}) must not exceed --profiles ({profiles})"
        )));
    }
    Ok(contributors)
}

fn cmd_mixture(args: &Args) -> Result<CmdReport, CliError> {
    args.expect_only(&[
        "device",
        "profiles",
        "snps",
        "contributors",
        "seed",
        "fault-profile",
        "fault-seed",
    ])?;
    let dev = device_arg(args)?;
    let profiles = args.get_size("profiles", 5_000)?;
    let snps = args.get_size("snps", 512)?;
    let contributors = contributors_arg(args, 3, profiles)?;
    let seed = args.get_parse("seed", 42u64)?;
    let db = generate_database(
        &DatabaseConfig {
            profiles,
            snps,
            ..Default::default()
        },
        seed,
    );
    let (mixtures, matrix) = generate_mixtures(&db, 1, contributors, seed + 1);
    let strategy = if dev.fused_andnot {
        MixtureStrategy::Direct
    } else {
        MixtureStrategy::PreNegate
    };
    let mut engine = GpuEngine::new(dev.clone()).with_options(EngineOptions {
        mode: ExecMode::Full,
        double_buffer: true,
        mixture: strategy,
        ..Default::default()
    });
    if let Some(plan) = fault_args(args)? {
        engine = engine.with_fault_plan(plan);
    }
    let run = engine
        .mixture_analysis(&db.profiles, &matrix)
        .map_err(engine_err)?;
    let gamma = run.gamma.expect("full mode");
    let included: Vec<usize> = (0..profiles).filter(|&r| gamma.get(r, 0) == 0).collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "mixture analysis on {} (strategy {:?}, chosen for this microarchitecture):",
        dev.name, strategy
    );
    let _ = writeln!(out, "  planted contributors: {:?}", {
        let mut c = mixtures[0].contributors.clone();
        c.sort_unstable();
        c
    });
    let _ = writeln!(
        out,
        "  profiles consistent with the mixture (γ = 0): {included:?}"
    );
    let _ = writeln!(
        out,
        "  modeled kernel {:.3} ms at {:.0} G word-ops/s",
        run.timing.kernel_ns as f64 / 1e6,
        run.kernel_word_ops_per_sec / 1e9
    );
    Ok(finish_workload(out, run.recovery.as_ref()))
}

fn cmd_cpu(args: &Args) -> Result<String, ArgError> {
    args.expect_only(&["snps", "samples", "seed"])?;
    let snps = args.get_size("snps", 512)?;
    let samples = args.get_size("samples", 4096)?;
    let seed = args.get_parse("seed", 42u64)?;
    let panel = snp_popgen::random_dense(snps, samples, seed);
    let engine = CpuEngine::new();
    let t0 = std::time::Instant::now();
    let gamma = engine.ld_self_symmetric(&panel);
    let dt = t0.elapsed();
    let word_ops = snps * snps * panel.words_per_row();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "real CPU engine (this host): {snps} x {snps} LD over {samples} samples"
    );
    let _ = writeln!(
        out,
        "wall time {:.1} ms, {:.2} G word64-ops/s (symmetric path)",
        dt.as_secs_f64() * 1e3,
        word_ops as f64 / dt.as_secs_f64() / 1e9
    );
    let _ = writeln!(out, "popcount tier: {}", Tier::detected());
    let model = CpuModel::ivy_bridge_workstation();
    let _ = writeln!(
        out,
        "(the paper's Xeon E5-2620 v2 model would need {:.1} ms)",
        model.time_ns_for_bits(WordOpKind::And, snps, snps, samples) / 1e6
    );
    let _ = writeln!(out, "γ[0][0] = {} (self count)", gamma.get(0, 0));
    let _ = BitMatrix::<u64>::zeros(0, 0); // keep the type in the public surface
    Ok(out)
}

fn cmd_trace(args: &Args) -> Result<String, ArgError> {
    args.expect_only(&[
        "algo",
        "algorithm",
        "device",
        "snps",
        "samples",
        "profiles",
        "queries",
        "contributors",
        "seed",
        "out",
        "summary",
    ])?;
    let dev = device_arg(args)?;
    let algo = args
        .get("algo")
        .or_else(|| args.get("algorithm"))
        .unwrap_or("ld");
    let seed = args.get_parse("seed", 42u64)?;
    let tracer = snp_trace::Tracer::enabled();
    let engine = GpuEngine::new(dev.clone())
        .with_options(EngineOptions {
            mode: ExecMode::Full,
            double_buffer: true,
            mixture: if dev.fused_andnot {
                MixtureStrategy::Direct
            } else {
                MixtureStrategy::PreNegate
            },
            ..Default::default()
        })
        .with_tracer(tracer.clone());
    let (label, timing, passes) = match algo {
        "ld" => {
            let snps = args.get_size("snps", 128)?;
            let samples = args.get_size("samples", 1024)?;
            let panel = generate_panel(
                &PanelConfig {
                    snps,
                    samples,
                    ..Default::default()
                },
                seed,
            );
            let run = engine
                .ld_self(&panel.matrix)
                .map_err(|e| ArgError(e.to_string()))?;
            (
                format!("LD scan: {snps} SNPs x {samples} haplotypes"),
                run.timing,
                run.passes,
            )
        }
        "fastid" | "search" => {
            let profiles = args.get_size("profiles", 2_000)?;
            let snps = args.get_size("snps", 256)?;
            let queries = args.get_size("queries", 4)?;
            let db = generate_database(
                &DatabaseConfig {
                    profiles,
                    snps,
                    ..Default::default()
                },
                seed,
            );
            let qs = generate_queries(&db, queries, queries.div_ceil(2), 0.01, seed + 1);
            let run = engine
                .identity_search(&qs.queries, &db.profiles)
                .map_err(|e| ArgError(e.to_string()))?;
            (
                format!("FastID identity search: {queries} queries vs {profiles} profiles"),
                run.timing,
                run.passes,
            )
        }
        "mixture" => {
            let profiles = args.get_size("profiles", 1_000)?;
            let snps = args.get_size("snps", 256)?;
            let contributors = contributors_arg(args, 2, profiles)?;
            let db = generate_database(
                &DatabaseConfig {
                    profiles,
                    snps,
                    ..Default::default()
                },
                seed,
            );
            let (_mixtures, matrix) = generate_mixtures(&db, 1, contributors, seed + 1);
            let run = engine
                .mixture_analysis(&db.profiles, &matrix)
                .map_err(|e| ArgError(e.to_string()))?;
            (
                format!(
                    "FastID mixture analysis: {profiles} profiles, {contributors} contributors"
                ),
                run.timing,
                run.passes,
            )
        }
        other => {
            return Err(ArgError(format!(
                "unknown algo {other:?} (ld|fastid|mixture)"
            )))
        }
    };

    let trace = tracer.snapshot().expect("tracing was enabled");
    let json = snp_trace::chrome::export_chrome_trace(&trace);
    let stats = snp_trace::chrome::validate(&json)
        .map_err(|e| ArgError(format!("internal: emitted trace failed validation: {e}")))?;
    let out_path = args.get_or("out", "trace.json");
    std::fs::write(out_path, &json)
        .map_err(|e| ArgError(format!("cannot write {out_path}: {e}")))?;
    let mut summary_text = snp_trace::summary::render_summary(&trace);
    summary_text.push('\n');
    summary_text.push_str(&snp_trace::summary::render_metrics(snp_trace::registry()));
    let summary_path = args.get_or("summary", "trace.txt");
    std::fs::write(summary_path, &summary_text)
        .map_err(|e| ArgError(format!("cannot write {summary_path}: {e}")))?;

    let mut out = String::new();
    let _ = writeln!(out, "{label} on {}", dev.name);
    let _ = writeln!(
        out,
        "modeled end-to-end {:.2} ms ({} pass(es), kernel {:.3} ms)",
        timing.end_to_end_ns as f64 / 1e6,
        passes,
        timing.kernel_ns as f64 / 1e6
    );
    let _ = writeln!(
        out,
        "timeline: {out_path} ({} slices, {} counter events, {} tracks; validated Chrome trace_event JSON)",
        stats.slices,
        stats.counters,
        trace.tracks.len()
    );
    let _ = writeln!(
        out,
        "summary:  {summary_path} (hierarchical text view + metrics registry)"
    );
    let _ = writeln!(
        out,
        "open the timeline at https://ui.perfetto.dev or chrome://tracing"
    );
    Ok(out)
}

/// A problem shape guaranteeing a multi-chunk, double-buffered command
/// stream on `dev` — the interesting case for race detection, since the
/// slot-recycling WAR/WAW edges only appear once `n` spans several chunks.
fn lint_shape(dev: &DeviceSpec) -> ProblemShape {
    let k_words = 256usize; // 8192 SNP-string bits
    let rows_per_alloc = (dev.max_alloc_bytes / 4) as usize / k_words;
    ProblemShape {
        m: 64,
        n: rows_per_alloc.saturating_mul(6).max(4096),
        k_words,
    }
}

fn cmd_lint(args: &Args) -> Result<String, ArgError> {
    args.expect_only(&["device", "json", "deep"])?;
    let deep = args.flag("deep");
    let algorithms = algorithm_selection(args.positional.as_deref().unwrap_or("all"))?;
    let devs = device_selection(args.get_or("device", "all"))?;

    let mut out = String::new();
    let mut json_targets = Vec::new();
    let mut blocking = 0usize;
    for dev in &devs {
        for &alg in &algorithms {
            let shape = lint_shape(dev);
            let mixture = if dev.fused_andnot {
                MixtureStrategy::Direct
            } else {
                MixtureStrategy::PreNegate
            };
            let engine = GpuEngine::new(dev.clone()).with_options(EngineOptions {
                mode: ExecMode::TimingOnly,
                double_buffer: true,
                mixture,
                verify: true,
                ..Default::default()
            });
            let run = engine
                .run_shape(shape, alg)
                .map_err(|e| ArgError(format!("{} / {}: {e}", dev.name, alg.name())))?;
            let mut report = run.verify_report.expect("verification was enabled");
            let op = compare_op(alg, mixture);
            let plan = KernelPlan::new(dev, &run.config, op, shape.m, shape.n, shape.k_words);
            let facts = plan.facts(dev, shape.k_words);
            let mut deep_json = String::new();
            if deep {
                report.merge(snp_verify::lint_kernel_deep(dev, &run.config, &facts));
                // Cross-lowering consistency (V114): on matrix-unit devices
                // whose plan actually lowers to MMA, the pinned scalar
                // program of the same plan must describe the same work.
                if plan.lowering.uses_matrix_unit() {
                    let scalar = KernelPlan::with_lowering(
                        dev,
                        &run.config,
                        op,
                        shape.m,
                        shape.n,
                        shape.k_words,
                        Lowering::Scalar,
                    );
                    report.merge(snp_verify::lint_cross_lowering(
                        dev,
                        &scalar.facts(dev, shape.k_words),
                        &facts,
                    ));
                }
                let df = snp_verify::Dataflow::analyze(&facts.program);
                let cp = snp_gpu_sim::critical_path(dev, &facts.program);
                deep_json = format!(
                    ",\"deep\":{{\"max_live\":{},\"reg_count\":{},\"chain_cycles\":{},\
                     \"peak_pipe_issue_cycles\":{},\"lower_bound_cycles\":{},\
                     \"predicted_core_cycles\":{:.0}}}",
                    df.pressure.max_live,
                    df.pressure.reg_count,
                    cp.chain_cycles,
                    cp.pipe_issue_cycles.iter().copied().max().unwrap_or(0),
                    cp.lower_bound_cycles(),
                    cp.predicted_core_cycles(dev.n_clusters, facts.groups_per_core),
                );
            } else {
                report.merge(snp_verify::lint_kernel(dev, &run.config, &facts));
            }
            let label = format!("{} / {}", dev.name, alg.name());
            out.push_str(&report.render_text(&label));
            if report.has_blocking() {
                blocking += 1;
            }
            json_targets.push(format!(
                "{{\"device\":\"{}\",\"algorithm\":\"{}\",\"report\":{}{}}}",
                snp_verify::json_escape(&dev.name),
                snp_verify::json_escape(alg.name()),
                report.to_json(),
                deep_json,
            ));
        }
    }
    if let Some(path) = args.get("json") {
        let json = format!("{{\"targets\":[{}]}}\n", json_targets.join(","));
        std::fs::write(path, json).map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        let _ = writeln!(out, "machine-readable report: {path}");
    }
    if blocking > 0 {
        return Err(ArgError(format!(
            "lint failed: {blocking} target(s) with blocking findings\n\n{out}"
        )));
    }
    let _ = writeln!(
        out,
        "all {} target(s) verified: no races, no kernel lint findings{}",
        devs.len() * algorithms.len(),
        if deep {
            " (deep dataflow rules included)"
        } else {
            ""
        },
    );
    Ok(out)
}

/// Shrinks a device's memory so the chaos workload needs several chunks —
/// checkpointing, loss-resume, and failover are only exercised multi-chunk.
fn chaos_device(base: &DeviceSpec) -> DeviceSpec {
    let mut d = base.clone();
    d.max_alloc_bytes = d.max_alloc_bytes.min(1 << 17);
    d.global_mem_bytes = d.global_mem_bytes.min(1 << 20);
    d
}

fn chaos_matrix(rows: usize, cols: usize, salt: u64) -> BitMatrix<u64> {
    BitMatrix::from_fn(rows, cols, |r, c| {
        let h = (r as u64)
            .wrapping_mul(1_000_003)
            .wrapping_add(c as u64)
            .wrapping_add(salt.wrapping_mul(7_777_777))
            .wrapping_mul(0x9E37_79B9);
        (h >> 13).is_multiple_of(4)
    })
}

fn cmd_chaos(args: &Args) -> Result<CmdReport, CliError> {
    args.expect_only(&["device", "profile", "seed", "json"])?;
    let algorithms = algorithm_selection(args.positional.as_deref().unwrap_or("all"))?;
    let devs = device_selection(args.get_or("device", "all"))?;
    let profiles: Vec<&str> = match args.get_or("profile", "all") {
        "all" => FaultProfile::NAMES.to_vec(),
        name => {
            if FaultProfile::by_name(name).is_none() {
                return Err(ArgError(format!(
                    "unknown fault profile {name:?} (one of: {})",
                    FaultProfile::NAMES.join(", ")
                ))
                .into());
            }
            vec![name]
        }
    };
    let seed = args.get_parse("seed", 42u64)?;

    // One shared workload per algorithm: small enough to be quick, large
    // enough that the shrunken devices plan several passes.
    let a = chaos_matrix(8, 320, seed);
    let b = chaos_matrix(9000, 320, seed + 1);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "chaos matrix: {} algorithm(s) x {} device(s) x {} profile(s), seed {seed}",
        algorithms.len(),
        devs.len(),
        profiles.len()
    );
    let _ = writeln!(
        out,
        "{:<24} {:<10} {:<11} {:<18} outcome",
        "device", "algorithm", "profile", "recovery"
    );
    let mut rows = Vec::new();
    let mut corruptions = 0usize;
    let mut hazards = 0usize;
    for dev in &devs {
        let cdev = chaos_device(dev);
        for &alg in &algorithms {
            let opts = EngineOptions {
                mode: ExecMode::Full,
                double_buffer: true,
                mixture: MixtureStrategy::Direct,
                verify: true,
                ..Default::default()
            };
            let op = compare_op(alg, MixtureStrategy::Direct);
            let want = reference_gamma(&a, &b, op);
            for &profile in &profiles {
                // Decorrelate cells: same base seed, distinct fault draws.
                let cell_seed =
                    seed.wrapping_add((rows.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let plan = FaultPlan::new(
                    cell_seed,
                    FaultProfile::by_name(profile).expect("validated above"),
                );
                let run = GpuEngine::new(cdev.clone())
                    .with_options(opts)
                    .with_fault_plan(plan)
                    .compare(&a, &b, alg);
                let (outcome, detail) = match &run {
                    Ok(report) => {
                        let gamma = report.gamma.as_ref().expect("full mode");
                        let rec = report.recovery.as_ref().expect("recovering path");
                        let detail = format!(
                            "r{} c{} s{} {}ck",
                            rec.retries,
                            rec.corruption_detected,
                            rec.stalls_absorbed,
                            rec.verified_chunks,
                        );
                        if gamma.first_mismatch(&want).is_some() {
                            corruptions += 1;
                            ("SILENT-CORRUPTION", detail)
                        } else if rec.degraded() {
                            (
                                "degraded",
                                format!("{detail} resume@{}", rec.resumed_from_chunk.unwrap_or(0)),
                            )
                        } else if rec.retries + rec.corruption_detected + rec.stalls_absorbed > 0 {
                            ("recovered", detail)
                        } else {
                            ("clean", detail)
                        }
                    }
                    Err(e) if e.is_hazard() => {
                        hazards += 1;
                        ("HAZARD", e.to_string())
                    }
                    Err(e) if e.device_fault().is_some() => ("typed-error", e.to_string()),
                    Err(e) => ("error", e.to_string()),
                };
                let _ = writeln!(
                    out,
                    "{:<24} {:<10} {:<11} {:<18} {outcome}",
                    cdev.name,
                    algorithm_slug(alg),
                    profile,
                    detail
                );
                rows.push(format!(
                    "{{\"device\":\"{}\",\"algorithm\":\"{}\",\"profile\":\"{}\",\"seed\":{cell_seed},\"outcome\":\"{}\",\"detail\":\"{}\"}}",
                    snp_verify::json_escape(&cdev.name),
                    snp_verify::json_escape(algorithm_slug(alg)),
                    snp_verify::json_escape(profile),
                    snp_verify::json_escape(outcome),
                    snp_verify::json_escape(&detail),
                ));
            }
        }
    }
    let exit = if corruptions > 0 {
        ExitCode::Corruption
    } else if hazards > 0 {
        ExitCode::Hazard
    } else {
        ExitCode::Ok
    };
    let _ = writeln!(
        out,
        "{} cell(s): {corruptions} silent corruption(s), {hazards} hazard(s)",
        rows.len()
    );
    if let Some(path) = args.get("json") {
        let json = format!(
            "{{\"seed\":{seed},\"cells\":[{}],\"silent_corruptions\":{corruptions},\"hazards\":{hazards}}}\n",
            rows.join(",")
        );
        std::fs::write(path, json)
            .map_err(|e| CliError::from(ArgError(format!("cannot write {path}: {e}"))))?;
        let _ = writeln!(out, "machine-readable report: {path}");
    }
    if exit == ExitCode::Ok {
        let _ = writeln!(
            out,
            "no silent corruption: every fault was retried, detected, absorbed, or surfaced typed"
        );
    }
    Ok(CmdReport { text: out, exit })
}

/// JSON for one profiled cell (hand-rolled, like the lint/chaos reports).
fn profile_cell_json(c: &snp_core::CellProfile) -> String {
    let fu: Vec<String> = c
        .fu
        .iter()
        .map(|f| {
            format!(
                "{{\"pipeline\":\"{}\",\"busy_cycles\":{},\"detailed_busy_cycles\":{},\"utilization\":{:.6}}}",
                snp_verify::json_escape(&f.pipeline),
                f.busy_cycles,
                f.detailed_busy_cycles,
                f.utilization
            )
        })
        .collect();
    let instrs: Vec<String> = c
        .instrs_by_class
        .iter()
        .map(|(class, n)| {
            format!(
                "{{\"class\":\"{}\",\"count\":{n}}}",
                snp_verify::json_escape(class)
            )
        })
        .collect();
    format!(
        concat!(
            "{{\"device\":\"{device}\",\"algorithm\":\"{alg}\",",
            "\"m\":{m},\"n\":{n},\"k_words\":{k},\"passes\":{passes},\"kernel_ns\":{kns},",
            "\"fu\":[{fu}],\"instrs_by_class\":[{instrs}],",
            "\"bank_conflict_replays\":{replays},\"job_cycles\":{jc},",
            "\"occupancy\":{{\"groups_per_core\":{gpc},\"target_groups\":{tg},\"achieved\":{occ:.6}}},",
            "\"bandwidth\":{{\"bytes_moved\":{bytes},\"achieved_bytes_s\":{abw:.1},",
            "\"peak_bytes_s\":{pbw:.1},\"fraction\":{bwf:.6}}},",
            "\"roofline\":{{\"arithmetic_intensity\":{ai:.6},\"ridge\":{ridge:.6},",
            "\"matrix_unit_ridge\":{mur},",
            "\"compute_peak_word_ops_s\":{cpk:.1},\"memory_peak_bytes_s\":{mpk:.1},",
            "\"bound\":\"{bound}\"}},",
            "\"drift\":{{\"analytic_ns\":{an:.1},\"macro_ns\":{mn:.1},",
            "\"detailed_ns\":{dn:.1},",
            "\"analytic_vs_macro\":{avm:.6},\"macro_vs_detailed\":{mvd:.6},",
            "\"analytic_vs_detailed\":{avd:.6},",
            "\"within_tolerance\":{within}}}}}"
        ),
        device = snp_verify::json_escape(&c.device),
        alg = snp_verify::json_escape(algorithm_slug(c.algorithm)),
        m = c.shape.m,
        n = c.shape.n,
        k = c.shape.k_words,
        passes = c.passes,
        kns = c.kernel_ns,
        fu = fu.join(","),
        instrs = instrs.join(","),
        replays = c.bank_conflict_replays,
        jc = c.job_cycles,
        gpc = c.occupancy.groups_per_core,
        tg = c.occupancy.target_groups,
        occ = c.occupancy.achieved,
        bytes = c.bandwidth.bytes_moved,
        abw = c.bandwidth.achieved_bytes_s,
        pbw = c.bandwidth.peak_bytes_s,
        bwf = c.bandwidth.fraction,
        ai = c.roofline.arithmetic_intensity,
        ridge = c.roofline.ridge,
        mur = c
            .roofline
            .matrix_unit_ridge
            .map_or("null".to_string(), |r| format!("{r:.6}")),
        cpk = c.roofline.compute_peak_word_ops_s,
        mpk = c.roofline.memory_peak_bytes_s,
        bound = c.roofline.bound.label(),
        an = c.drift.analytic_ns,
        mn = c.drift.macro_ns,
        dn = c.drift.detailed_ns,
        avm = c.drift.analytic_vs_macro,
        mvd = c.drift.macro_vs_detailed,
        avd = c.drift.analytic_vs_detailed,
        within = c.drift.within_tolerance(),
    )
}

fn cmd_profile(args: &Args) -> Result<CmdReport, CliError> {
    args.expect_only(&["device", "m", "n", "snps", "json"])?;
    let algorithms = algorithm_selection(args.positional.as_deref().unwrap_or("all"))?;
    let devs = device_selection(args.get_or("device", "all"))?;
    let m = args.get_size("m", 2048)?;
    let n = args.get_size("n", 2048)?;
    let snps = args.get_size("snps", 8192)?;
    let shape = ProblemShape {
        m,
        n,
        k_words: snps.div_ceil(32),
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "profiling {} algorithm(s) x {} device(s) at {m} x {n} over {} device words",
        algorithms.len(),
        devs.len(),
        shape.k_words
    );
    let mut cells = Vec::new();
    let mut violations = 0usize;
    for dev in &devs {
        for &alg in &algorithms {
            let cell = snp_core::profile_cell(dev, alg, shape).map_err(engine_err)?;
            let _ = writeln!(
                out,
                "\n== {} / {} ==",
                cell.device,
                algorithm_slug(cell.algorithm)
            );
            let _ = writeln!(
                out,
                "  {} pass(es), kernel {:.3} ms, {} tile-job cycles per core",
                cell.passes,
                cell.kernel_ns as f64 / 1e6,
                cell.job_cycles
            );
            let fu_line: Vec<String> = cell
                .fu
                .iter()
                .map(|f| format!("{} {:.1}%", f.pipeline, f.utilization * 100.0))
                .collect();
            let _ = writeln!(out, "  FU utilization: {}", fu_line.join(", "));
            let _ = writeln!(
                out,
                "  bank-conflict replays: {}",
                cell.bank_conflict_replays
            );
            let _ = writeln!(
                out,
                "  occupancy: {}/{} resident groups per core ({:.0}%)",
                cell.occupancy.groups_per_core,
                cell.occupancy.target_groups,
                cell.occupancy.achieved * 100.0
            );
            let _ = writeln!(
                out,
                "  bandwidth: {:.1} MB moved, {:.1} / {:.1} GB/s ({:.1}% of peak)",
                cell.bandwidth.bytes_moved as f64 / 1e6,
                cell.bandwidth.achieved_bytes_s / 1e9,
                cell.bandwidth.peak_bytes_s / 1e9,
                cell.bandwidth.fraction * 100.0
            );
            let mur = cell
                .roofline
                .matrix_unit_ridge
                .map_or(String::new(), |r| format!(" (matrix-unit ridge {r:.1})"));
            let _ = writeln!(
                out,
                "  roofline: {:.1} word-ops/B vs ridge {:.1} -> {}-bound{mur}",
                cell.roofline.arithmetic_intensity,
                cell.roofline.ridge,
                cell.roofline.bound.label()
            );
            let ok = cell.drift.within_tolerance();
            let _ = writeln!(
                out,
                "  drift: analytic {:.3} ms | static {:.3} ms | detailed {:.3} ms",
                cell.drift.analytic_ns / 1e6,
                cell.drift.macro_ns / 1e6,
                cell.drift.detailed_ns / 1e6
            );
            let _ = writeln!(
                out,
                "         analytic~static {:.1}% (tol {:.0}%), static~detailed {:.2}% (tol {:.0}%)  {}",
                cell.drift.analytic_vs_macro * 100.0,
                cell.drift.analytic_tolerance * 100.0,
                cell.drift.macro_vs_detailed * 100.0,
                cell.drift.engine_tolerance * 100.0,
                if ok { "OK" } else { "DRIFT" }
            );
            if !ok {
                violations += 1;
            }
            cells.push(profile_cell_json(&cell));
        }
    }
    let _ = writeln!(
        out,
        "\n{} cell(s) profiled, {violations} drift violation(s)",
        cells.len()
    );
    if let Some(path) = args.get("json") {
        let json = format!(
            "{{\"shape\":{{\"m\":{m},\"n\":{n},\"k_words\":{}}},\
             \"tolerances\":{{\"analytic\":{},\"engine\":{}}},\
             \"cells\":[{}],\"drift_violations\":{violations}}}\n",
            shape.k_words,
            snp_core::ANALYTIC_DRIFT_TOLERANCE,
            snp_core::ENGINE_DRIFT_TOLERANCE,
            cells.join(",")
        );
        std::fs::write(path, json)
            .map_err(|e| CliError::from(ArgError(format!("cannot write {path}: {e}"))))?;
        let _ = writeln!(out, "machine-readable report: {path}");
    }
    let exit = if violations > 0 {
        ExitCode::Error
    } else {
        ExitCode::Ok
    };
    Ok(CmdReport { text: out, exit })
}

/// Parses loadgen's `--fault-profile NAME [--fault-at Q]` into a
/// [`snp_load::FaultSpec`]. Accepts the same `loss@N` pin as the workload
/// commands.
fn loadgen_fault(args: &Args) -> Result<Option<snp_load::FaultSpec>, ArgError> {
    let Some(name) = args.get("fault-profile") else {
        return Ok(None);
    };
    let profile = if let Some(at) = name.strip_prefix("loss@") {
        let at: u64 = at
            .parse()
            .map_err(|_| ArgError(format!("bad command index in {name:?}")))?;
        FaultProfile {
            device_loss_at: Some(at),
            ..FaultProfile::none()
        }
    } else {
        FaultProfile::by_name(name).ok_or_else(|| {
            ArgError(format!(
                "unknown fault profile {name:?} (expected one of: {}, or loss@N)",
                FaultProfile::NAMES.join(", ")
            ))
        })?
    };
    let at_query = match args.get("fault-at") {
        None => None,
        Some(_) => Some(args.get_parse("fault-at", 0usize)?),
    };
    Ok(Some(snp_load::FaultSpec {
        profile_name: name.to_string(),
        profile,
        at_query,
    }))
}

/// Applies `--slo-p50-ms / --slo-p99-ms / --error-budget` overrides: each
/// replaces that objective for *every* algorithm (the defaults are
/// per-algorithm; the overrides are blanket, which is what a smoke test or
/// an injected-breach check wants).
fn loadgen_slo(args: &Args) -> Result<snp_load::SloPolicy, ArgError> {
    let mut policy = snp_load::SloPolicy::default();
    let p50_ms: Option<f64> = match args.get("slo-p50-ms") {
        None => None,
        Some(_) => Some(args.get_parse("slo-p50-ms", 0.0f64)?),
    };
    let p99_ms: Option<f64> = match args.get("slo-p99-ms") {
        None => None,
        Some(_) => Some(args.get_parse("slo-p99-ms", 0.0f64)?),
    };
    let budget: Option<f64> = match args.get("error-budget") {
        None => None,
        Some(_) => Some(args.get_parse("error-budget", 0.0f64)?),
    };
    let apply = |slo: &mut snp_load::Slo| {
        if let Some(ms) = p50_ms {
            slo.p50_ns = (ms * 1e6) as u64;
        }
        if let Some(ms) = p99_ms {
            slo.p99_ns = (ms * 1e6) as u64;
        }
        if let Some(b) = budget {
            slo.error_budget = b;
        }
    };
    for (_, slo) in policy.per_algorithm.iter_mut() {
        apply(slo);
    }
    apply(&mut policy.default);
    Ok(policy)
}

/// Parses the admission-control options. `--admission` switches the layer
/// on; the tuning knobs require it (on the legacy FIFO path they would
/// silently do nothing). `implied: true` is overload-chaos mode, where
/// admission is always on and the shed budget defaults to a chaos-friendly
/// 0.9 — under 8x overload, typed shedding *is* the correct behavior.
fn loadgen_admission(args: &Args, implied: bool) -> Result<snp_load::AdmissionConfig, ArgError> {
    if !args.flag("admission") && !implied {
        for knob in ["deadline-slack", "shed-budget", "queue-cap"] {
            if args.get(knob).is_some() {
                return Err(ArgError(format!("--{knob} requires --admission")));
            }
        }
        return Ok(snp_load::AdmissionConfig::disabled());
    }
    let mut adm = snp_load::AdmissionConfig::standard();
    if implied {
        adm.shed_budget = 0.9;
    }
    adm.deadline_slack = args.get_parse("deadline-slack", adm.deadline_slack)?;
    adm.shed_budget = args.get_parse("shed-budget", adm.shed_budget)?;
    adm.queue_cap = args.get_size("queue-cap", adm.queue_cap)?;
    if adm.deadline_slack.is_nan() || adm.deadline_slack <= 0.0 {
        return Err(ArgError(format!(
            "--deadline-slack must be positive, got {}",
            adm.deadline_slack
        )));
    }
    if adm.shed_budget.is_nan() || !(0.0..=1.0).contains(&adm.shed_budget) {
        return Err(ArgError(format!(
            "--shed-budget must be in [0, 1], got {}",
            adm.shed_budget
        )));
    }
    Ok(adm)
}

/// Builds the load config shared by `loadgen` and `metrics`.
fn loadgen_config(args: &Args, default_queries: usize) -> Result<snp_load::LoadConfig, ArgError> {
    let algorithms = algorithm_selection(args.positional.as_deref().unwrap_or("all"))?;
    let dev = device_arg(args)?;
    let rate = args.get_parse("rate", 2_000.0f64)?;
    // `rate <= 0.0` alone would let NaN through (NaN compares false both ways).
    if rate.is_nan() || rate <= 0.0 {
        return Err(ArgError(format!("--rate must be positive, got {rate}")));
    }
    let arrival_name = args.get_or("arrival", "poisson");
    let arrival = snp_load::ArrivalKind::by_name(arrival_name).ok_or_else(|| {
        ArgError(format!(
            "unknown arrival process {arrival_name:?} (poisson|bursty)"
        ))
    })?;
    let mut cfg = snp_load::LoadConfig::new(dev, snp_load::templates_for(&algorithms));
    cfg.rate_qps = rate;
    cfg.queries = args.get_size("queries", default_queries)?;
    cfg.seed = args.get_parse("seed", 42u64)?;
    cfg.arrival = arrival;
    cfg.fault = loadgen_fault(args)?;
    cfg.slo = loadgen_slo(args)?;
    cfg.flight_capacity = args.get_size("flight-capacity", cfg.flight_capacity)?;
    cfg.anatomy = args.flag("anatomy");
    Ok(cfg)
}

/// Exit code for one loadgen run: silent corruption dominates, then a blown
/// shed budget, then the latency SLOs.
fn loadgen_exit(report: &snp_load::LoadReport) -> ExitCode {
    match &report.admission {
        Some(adm) if adm.corruptions > 0 => ExitCode::Corruption,
        Some(adm) if adm.shed_budget_exceeded => ExitCode::ShedBudgetExceeded,
        _ if report.breached => ExitCode::SloBreach,
        _ => ExitCode::Ok,
    }
}

fn cmd_loadgen(args: &Args) -> Result<CmdReport, CliError> {
    args.expect_only(&[
        "device",
        "rate",
        "queries",
        "seed",
        "arrival",
        "mode",
        "slo-p50-ms",
        "slo-p99-ms",
        "error-budget",
        "fault-profile",
        "fault-at",
        "admission",
        "deadline-slack",
        "shed-budget",
        "queue-cap",
        "flight-capacity",
        "anatomy",
        "json",
        "trace",
        "flight",
    ])?;
    let write = |path: &str, data: &str| -> Result<(), CliError> {
        std::fs::write(path, data)
            .map_err(|e| CliError::from(ArgError(format!("cannot write {path}: {e}"))))
    };
    let mode = args.get_or("mode", "run");
    match mode {
        "run" => {
            let mut cfg = loadgen_config(args, 64)?;
            cfg.admission = loadgen_admission(args, false)?;
            let report = snp_load::run(&cfg);
            let mut text = report.render_text();
            if let Some(path) = args.get("json") {
                write(path, &report.to_json())?;
                let _ = writeln!(text, "slo report: {path}");
            }
            if let Some(path) = args.get("trace") {
                let timeline = report.timeline.as_ref().expect("run mode records");
                let json = snp_trace::chrome::export_chrome_trace(timeline);
                let stats = snp_trace::chrome::validate(&json).map_err(|e| {
                    CliError::from(ArgError(format!(
                        "internal: merged timeline failed validation: {e}"
                    )))
                })?;
                write(path, &json)?;
                let _ = writeln!(
                    text,
                    "timeline: {path} ({} slices, {} counter events, {} tracks; query-attributed)",
                    stats.slices,
                    stats.counters,
                    timeline.tracks.len()
                );
            }
            if let Some(path) = args.get("flight") {
                match &report.postmortem {
                    Some(pm) => {
                        write(path, &pm.json)?;
                        let _ = writeln!(text, "flight-recorder dump: {path} ({})", pm.reason);
                    }
                    None => {
                        let _ = writeln!(
                            text,
                            "flight-recorder dump: not written (no typed fault or SLO breach)"
                        );
                    }
                }
            }
            Ok(CmdReport {
                text,
                exit: loadgen_exit(&report),
            })
        }
        "sweep" => {
            if args.get("trace").is_some() || args.get("flight").is_some() {
                return Err(CliError::from(ArgError(
                    "--trace/--flight are per-run artifacts; use --mode run".into(),
                )));
            }
            let mut cfg = loadgen_config(args, 48)?;
            cfg.admission = loadgen_admission(args, false)?;
            let sweep = snp_load::saturation_sweep(&cfg, &snp_load::SWEEP_MULTIPLIERS);
            let mut text = sweep.render_text();
            if let Some(path) = args.get("json") {
                write(path, &sweep.to_json())?;
                let _ = writeln!(text, "slo report: {path}");
            }
            let exit = if sweep.breached() {
                ExitCode::SloBreach
            } else {
                ExitCode::Ok
            };
            Ok(CmdReport { text, exit })
        }
        "chaos" => {
            if args.get("trace").is_some() || args.get("flight").is_some() {
                return Err(CliError::from(ArgError(
                    "--trace/--flight are per-run artifacts; use --mode run".into(),
                )));
            }
            let algorithms = algorithm_selection(args.positional.as_deref().unwrap_or("all"))?;
            let mut base = loadgen_config(args, 48)?;
            base.admission = loadgen_admission(args, true)?;
            // The combined-failure matrix: bursty arrivals at 8x the
            // offered rate, plus a device loss mid-stream unless the caller
            // pinned a different fault.
            base.rate_qps *= 8.0;
            base.arrival = snp_load::ArrivalKind::Bursty;
            if base.fault.is_none() {
                base.fault = Some(snp_load::FaultSpec {
                    profile_name: "loss@2".to_string(),
                    profile: FaultProfile {
                        device_loss_at: Some(2),
                        ..FaultProfile::none()
                    },
                    at_query: Some(base.queries / 3),
                });
            }
            let fault = base.fault.as_ref().expect("chaos always arms a fault");
            let mut text = String::new();
            let _ = writeln!(
                text,
                "overload-chaos: {} cell(s) on {} — bursty arrivals at {:.0} q/s (8x), \
                 fault {} at query {}, admission on (shed budget {:.0}%)",
                algorithms.len(),
                base.device.name,
                base.rate_qps,
                fault.profile_name,
                fault.at_query.unwrap_or(0),
                base.admission.shed_budget * 100.0,
            );
            let mut worst = ExitCode::Ok;
            let mut cells: Vec<(&'static str, ExitCode, snp_load::LoadReport)> = Vec::new();
            for &alg in &algorithms {
                let mut cfg = base.clone();
                cfg.templates = snp_load::templates_for(&[alg]);
                let report = snp_load::run(&cfg);
                let exit = loadgen_exit(&report);
                if exit.overload_severity() > worst.overload_severity() {
                    worst = exit;
                }
                {
                    let adm = report
                        .admission
                        .as_ref()
                        .expect("chaos runs with admission on");
                    let ratio = if adm.tenant_goodput_ratio.is_finite() {
                        format!("{:.2}", adm.tenant_goodput_ratio)
                    } else {
                        "inf (starved tenant)".to_string()
                    };
                    let _ = writeln!(
                        text,
                        "  cell {:<8} offered {:>3}, admitted {:>3}, shed {:>5.1}%, \
                         goodput {:>8.1} q/s, tenant ratio {}, corruptions {}, \
                         final tier {}, exit {}",
                        algorithm_slug(alg),
                        adm.offered,
                        adm.admitted,
                        adm.shed_fraction * 100.0,
                        adm.goodput_qps,
                        ratio,
                        adm.corruptions,
                        adm.final_tier.label(),
                        exit.code(),
                    );
                }
                cells.push((algorithm_slug(alg), exit, report));
            }
            let corruptions: usize = cells
                .iter()
                .map(|(_, _, r)| r.admission.as_ref().map_or(0, |a| a.corruptions))
                .sum();
            let _ = writeln!(
                text,
                "verdict: {} silent corruption(s) across {} cell(s), worst exit {}",
                corruptions,
                cells.len(),
                worst.code(),
            );
            if let Some(path) = args.get("json") {
                let mut json = String::new();
                let _ = write!(
                    json,
                    "{{\"schema_version\":1,\"kind\":\"overload-chaos\",\
                     \"device\":\"{}\",\"rate_qps\":{:.3},\"arrival\":\"bursty\",\
                     \"fault_profile\":\"{}\",\"silent_corruptions\":{},\
                     \"worst_exit\":{},\"cells\":[",
                    base.device.name,
                    base.rate_qps,
                    fault.profile_name,
                    corruptions,
                    worst.code(),
                );
                for (i, (slug, exit, report)) in cells.iter().enumerate() {
                    if i > 0 {
                        json.push(',');
                    }
                    let _ = write!(
                        json,
                        "{{\"algorithm\":\"{}\",\"exit\":{},\"report\":{}}}",
                        slug,
                        exit.code(),
                        report.to_json().trim_end(),
                    );
                }
                json.push_str("]}\n");
                write(path, &json)?;
                let _ = writeln!(text, "admission report: {path}");
            }
            Ok(CmdReport { text, exit: worst })
        }
        other => Err(CliError::from(ArgError(format!(
            "unknown mode {other:?} (run|sweep|chaos)"
        )))),
    }
}

fn cmd_whatif(args: &Args) -> Result<CmdReport, CliError> {
    args.expect_only(&[
        "device",
        "rate",
        "queries",
        "seed",
        "arrival",
        "admission",
        "deadline-slack",
        "shed-budget",
        "queue-cap",
        "perturb",
        "json",
    ])?;
    let mut cfg = loadgen_config(args, 24)?;
    cfg.admission = loadgen_admission(args, false)?;
    let perturbations = match args.get("perturb") {
        None => snp_load::default_perturbations(),
        Some(spec) => {
            let mut ps = Vec::new();
            for tok in spec.split(',') {
                ps.push(snp_load::Perturbation::parse(tok.trim()).map_err(ArgError)?);
            }
            ps
        }
    };
    let report = snp_load::run_whatif(&cfg, &perturbations);
    let mut text = report.render_text();
    if let Some(path) = args.get("json") {
        std::fs::write(path, report.to_json())
            .map_err(|e| CliError::from(ArgError(format!("cannot write {path}: {e}"))))?;
        let _ = writeln!(text, "what-if report: {path}");
    }
    // A confirmation miss means observation perturbed virtual timing — an
    // internal modeling error, not a property of the workload.
    let exit = if report.confirmation.within_5_percent {
        ExitCode::Ok
    } else {
        ExitCode::Error
    };
    Ok(CmdReport { text, exit })
}

fn cmd_metrics(args: &Args) -> Result<String, ArgError> {
    args.expect_only(&["device", "seed", "queries", "out"])?;
    let mut cfg = loadgen_config(args, 12)?;
    // Populate the registry with a small seeded load; skip per-query
    // tracing — this command is about the metrics substrate.
    cfg.record_timeline = false;
    let report = snp_load::run(&cfg);
    let exposition = snp_trace::render_registry();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# registry snapshot after {} seeded queries on {} (seed {})",
        report.records.len(),
        report.device,
        report.seed
    );
    out.push_str(&exposition);
    if let Some(path) = args.get("out") {
        std::fs::write(path, &out).map_err(|e| ArgError(format!("cannot write {path}: {e}")))?;
        Ok(format!("prometheus exposition: {path}\n"))
    } else {
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_line(line: &str) -> Result<String, ArgError> {
        run(&Args::parse(line.split_whitespace().map(str::to_string)).unwrap())
    }

    #[test]
    fn no_command_prints_usage() {
        let out = run_line("").unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors_with_usage() {
        let err = run_line("frobnicate").unwrap_err();
        assert!(err.to_string().contains("unknown command"));
    }

    #[test]
    fn devices_lists_all_five() {
        let out = run_line("devices").unwrap();
        for name in ["GTX 980", "Titan V", "Vega 64", "TC100", "Xeon"] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
        // The matrix unit shows up on the TC100 line only.
        assert_eq!(out.matches("mma x8 (8x8x128b").count(), 1);
    }

    #[test]
    fn config_reports_table2_values() {
        let out = run_line("config --device titan-v --algorithm ld").unwrap();
        assert!(out.contains("n_r = 1024"));
        assert!(out.contains("k_c = 383"));
        assert!(out.contains("core grid = 80 x 1"));
    }

    #[test]
    fn config_rejects_unknown_algorithm_and_device() {
        assert!(run_line("config --algorithm nope").is_err());
        assert!(run_line("config --device GTX9999").is_err());
        // The CPU row is not a GPU target.
        assert!(run_line("config --device xeon-e5-2620-v2").is_err());
    }

    #[test]
    fn ld_command_runs_and_reports() {
        let out = run_line("ld --device gtx-980 --snps 48 --samples 512 --seed 7").unwrap();
        assert!(out.contains("LD scan"));
        assert!(out.contains("strongest pair"));
    }

    #[test]
    fn search_command_identifies_planted_queries() {
        let out =
            run_line("search --device vega-64 --profiles 400 --snps 256 --queries 4 --noise 0.0")
                .unwrap();
        assert!(out.contains("MATCH"));
        assert!(out.contains("[planted: correct]"));
        assert!(!out.contains("WRONG PROFILE"));
    }

    #[test]
    fn mixture_command_recovers_contributors() {
        let out = run_line("mixture --device titan-v --profiles 300 --snps 384 --contributors 2")
            .unwrap();
        assert!(out.contains("planted contributors"));
        // The planted set must appear inside the consistent set line.
        let planted: Vec<usize> = out
            .lines()
            .find(|l| l.contains("planted contributors"))
            .unwrap()
            .split(['[', ']'])
            .nth(1)
            .unwrap()
            .split(", ")
            .map(|s| s.parse().unwrap())
            .collect();
        let consistent_line = out.lines().find(|l| l.contains("γ = 0")).unwrap();
        for c in planted {
            assert!(
                consistent_line.contains(&c.to_string()),
                "{c} missing from {consistent_line}"
            );
        }
    }

    #[test]
    fn cpu_command_runs_for_real() {
        let out = run_line("cpu --snps 64 --samples 512").unwrap();
        assert!(out.contains("real CPU engine"));
        assert!(out.contains("wall time"));
        let tier = out
            .lines()
            .find_map(|l| l.strip_prefix("popcount tier: "))
            .expect("the report names the popcount tier");
        assert!(["vpopcntq", "avx2", "portable"].contains(&tier), "{tier}");
    }

    #[test]
    fn zero_sizes_are_usage_errors_not_panics() {
        for (line, key) in [
            ("ld --snps 0", "snps"),
            ("ld --samples 0", "samples"),
            ("search --profiles 0", "profiles"),
            ("search --queries 0", "queries"),
            ("search --snps 0", "snps"),
            ("mixture --profiles 0", "profiles"),
            ("mixture --contributors 0", "contributors"),
            ("mixture --snps 0", "snps"),
            ("trace --algo ld --snps 0", "snps"),
            ("trace --algo ld --samples 0", "samples"),
            ("trace --algo fastid --profiles 0", "profiles"),
            ("trace --algo fastid --queries 0", "queries"),
            ("trace --algo fastid --snps 0", "snps"),
            ("trace --algo mixture --profiles 0", "profiles"),
            ("trace --algo mixture --contributors 0", "contributors"),
            ("trace --algo mixture --snps 0", "snps"),
            ("profile --m 0", "m"),
            ("profile --n 0", "n"),
            ("cpu --snps 0", "snps"),
        ] {
            let args = Args::parse(line.split_whitespace().map(str::to_string)).unwrap();
            let err = run_full(&args).expect_err(line);
            assert_eq!(err.exit, ExitCode::Error, "{line}");
            assert_eq!(err.message, format!("--{key} must be at least 1"), "{line}");
        }
    }

    #[test]
    fn contributors_above_profiles_are_usage_errors_not_panics() {
        for line in [
            "mixture --profiles 2 --contributors 3",
            "trace --algo mixture --profiles 2 --contributors 3",
        ] {
            let args = Args::parse(line.split_whitespace().map(str::to_string)).unwrap();
            let err = run_full(&args).expect_err(line);
            assert_eq!(err.exit, ExitCode::Error, "{line}");
            assert_eq!(
                err.message, "--contributors (3) must not exceed --profiles (2)",
                "{line}"
            );
        }
    }

    #[test]
    fn trace_command_writes_validated_artifacts() {
        let dir = std::env::temp_dir();
        let out = dir.join("snpgpu_test_trace.json");
        let summary = dir.join("snpgpu_test_trace.txt");
        let line = format!(
            "trace --algo ld --device gtx-980 --snps 48 --samples 512 --out {} --summary {}",
            out.display(),
            summary.display()
        );
        let report = run_line(&line).unwrap();
        assert!(report.contains("validated Chrome trace_event JSON"));
        assert!(report.contains("perfetto"));
        let json = std::fs::read_to_string(&out).unwrap();
        let stats = snp_trace::chrome::validate(&json).unwrap();
        assert!(stats.slices > 0, "timeline must contain slices");
        let text = std::fs::read_to_string(&summary).unwrap();
        assert!(text.contains("run:"), "summary must show the run span");
        let _ = std::fs::remove_file(&out);
        let _ = std::fs::remove_file(&summary);
    }

    #[test]
    fn trace_command_supports_fastid_and_rejects_unknown_algo() {
        let dir = std::env::temp_dir();
        let out = dir.join("snpgpu_test_trace_fastid.json");
        let summary = dir.join("snpgpu_test_trace_fastid.txt");
        let line = format!(
            "trace --algo fastid --device titan-v --profiles 300 --snps 128 --queries 2 --out {} --summary {}",
            out.display(),
            summary.display()
        );
        let report = run_line(&line).unwrap();
        assert!(report.contains("FastID identity search"));
        let _ = std::fs::remove_file(&out);
        let _ = std::fs::remove_file(&summary);
        assert!(run_line("trace --algo nope").is_err());
    }

    #[test]
    fn lint_passes_clean_for_all_algorithms_and_devices() {
        let out = run_line("lint all --device all").unwrap();
        for dev in ["GTX 980", "Titan V", "Vega 64"] {
            assert!(out.contains(dev), "missing {dev} in:\n{out}");
        }
        assert!(out.contains("0 error(s), 0 warning(s)"));
        assert!(out.contains("no races, no kernel lint findings"));
    }

    #[test]
    fn lint_single_algorithm_writes_json_report() {
        let path = std::env::temp_dir().join("snpgpu_test_lint.json");
        let line = format!("lint ld --device titan-v --json {}", path.display());
        let out = run_line(&line).unwrap();
        assert!(out.contains("Titan V / Linkage disequilibrium"));
        let json = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        for key in [
            "\"targets\"",
            "\"device\":\"Titan V\"",
            "\"errors\":0",
            "\"warnings\":0",
            "\"diagnostics\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
    }

    #[test]
    fn lint_rejects_unknown_target_and_device() {
        assert!(run_line("lint nope").is_err());
        assert!(run_line("lint ld --device xeon-e5-2620-v2").is_err());
    }

    #[test]
    fn chaos_single_cell_reports_recovery() {
        let out = run_line("chaos fastid --device gtx-980 --profile mixed --seed 7").unwrap();
        assert!(out.contains("0 silent corruption(s)"), "{out}");
        assert!(out.contains("0 hazard(s)"), "{out}");
    }

    #[test]
    fn chaos_loss_profile_degrades_and_resumes_midway() {
        let out = run_line("chaos ld --device titan-v --profile loss").unwrap();
        assert!(out.contains("degraded"), "{out}");
        assert!(out.contains("resume@"), "{out}");
        assert!(
            !out.contains("resume@0"),
            "loss must resume from a checkpoint, not chunk 0:\n{out}"
        );
    }

    #[test]
    fn chaos_writes_json_and_uses_exit_codes() {
        let path = std::env::temp_dir().join("snpgpu_test_chaos.json");
        let line = format!(
            "chaos mixture --device vega-64 --profile transient --json {}",
            path.display()
        );
        let report =
            run_full(&Args::parse(line.split_whitespace().map(str::to_string)).unwrap()).unwrap();
        assert_eq!(report.exit, ExitCode::Ok);
        let json = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        for key in ["\"cells\"", "\"outcome\"", "\"silent_corruptions\":0"] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
    }

    #[test]
    fn workload_under_device_loss_exits_degraded() {
        let report = run_full(
            &Args::parse(
                "ld --device gtx-980 --fault-profile loss@3"
                    .split_whitespace()
                    .map(str::to_string),
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(report.exit, ExitCode::Degraded);
        assert!(report.text.contains("DEVICE LOST"), "{}", report.text);
        // The degraded run still computes the right answer (CPU fallback).
        let clean = run_line("ld --device gtx-980").unwrap();
        let pair = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("strongest pair"))
                .map(str::to_string)
        };
        assert_eq!(pair(&report.text), pair(&clean));
    }

    #[test]
    fn chaos_rejects_unknown_profile_and_target() {
        assert!(run_line("chaos nope").is_err());
        assert!(run_line("chaos ld --profile gamma-rays").is_err());
    }

    #[test]
    fn typo_in_option_is_caught() {
        let err = run_line("ld --snsp 100").unwrap_err();
        assert!(err.to_string().contains("--snsp"));
    }

    #[test]
    fn loadgen_run_reports_and_writes_json() {
        let path = std::env::temp_dir().join("snpgpu_test_loadgen.json");
        let line = format!("loadgen ld --queries 12 --json {}", path.display());
        let report =
            run_full(&Args::parse(line.split_whitespace().map(str::to_string)).unwrap()).unwrap();
        assert_eq!(report.exit, ExitCode::Ok, "{}", report.text);
        assert!(
            report.text.contains("loadgen: 12 queries"),
            "{}",
            report.text
        );
        let json = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let doc = snp_trace::json::parse(&json).expect("valid slo-report.json");
        let obj = doc.as_obj().unwrap();
        assert_eq!(obj["slo_breached"], snp_trace::json::Value::Bool(false));
        assert_eq!(obj["queries"].as_num(), Some(12.0));
        assert!(!obj["algorithms"].as_arr().unwrap().is_empty());
    }

    #[test]
    fn loadgen_breach_exits_with_slo_code() {
        let report = run_full(
            &Args::parse(
                "loadgen ld --queries 12 --slo-p99-ms 0.000001"
                    .split_whitespace()
                    .map(str::to_string),
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(report.exit, ExitCode::SloBreach, "{}", report.text);
        assert!(report.text.contains("BREACH"), "{}", report.text);
    }

    #[test]
    fn loadgen_fault_run_dumps_flight_with_query_id() {
        let path = std::env::temp_dir().join("snpgpu_test_flight.json");
        let line = format!(
            "loadgen fastid --queries 16 --fault-profile loss@2 --fault-at 5 --flight {}",
            path.display()
        );
        let report =
            run_full(&Args::parse(line.split_whitespace().map(str::to_string)).unwrap()).unwrap();
        assert!(
            report.text.contains("flight-recorder dump:"),
            "{}",
            report.text
        );
        let json = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        snp_trace::chrome::validate(&json).expect("flight bundle is a valid Chrome trace");
        assert!(
            json.contains("\"query_id\":5"),
            "dump must carry the failing query id"
        );
        assert!(
            json.contains("\"flightRecorder\""),
            "dump must carry the postmortem header"
        );
    }

    #[test]
    fn loadgen_sweep_rejects_per_run_artifacts() {
        let err = run_line("loadgen ld --mode sweep --trace t.json").unwrap_err();
        assert!(err.to_string().contains("per-run artifacts"), "{err}");
    }

    #[test]
    fn metrics_emits_prometheus_exposition() {
        // The registry is process-global and shared across parallel tests,
        // so assert structure, not exact counter values.
        let out = run_line("metrics --queries 8").unwrap();
        assert!(
            out.contains("# registry snapshot after 8 seeded queries"),
            "{out}"
        );
        assert!(out.contains("# TYPE load_latency_ns_ld histogram"), "{out}");
        assert!(out.contains("load_queries_total"), "{out}");
        assert!(out.contains("load_queue_wait_ns_bucket"), "{out}");
        // Per-tenant latency series render with a tenant label, sharing
        // one TYPE line per family.
        assert!(
            out.contains("load_tenant_latency_ns_count{tenant=\"casework\"}"),
            "{out}"
        );
        assert!(
            out.contains("load_tenant_latency_ns_count{tenant=\"research\"}"),
            "{out}"
        );
        assert_eq!(
            out.matches("# TYPE load_tenant_latency_ns histogram")
                .count(),
            1,
            "{out}"
        );
    }

    #[test]
    fn loadgen_admission_sheds_typed_and_respects_budget_exit() {
        // Saturating bursty load with admission on: sheds are typed and the
        // tiny shed budget flips the exit to 7 (SHED_BUDGET_EXCEEDED).
        let report = run_full(
            &Args::parse(
                "loadgen ld --admission --rate 50000 --arrival bursty --queries 32 --shed-budget 0.05"
                    .split_whitespace()
                    .map(str::to_string),
            )
            .unwrap(),
        )
        .unwrap();
        assert_eq!(report.exit, ExitCode::ShedBudgetExceeded, "{}", report.text);
        assert!(report.text.contains("OVER BUDGET"), "{}", report.text);
        assert!(report.text.contains("tenant casework"), "{}", report.text);
    }

    #[test]
    fn loadgen_anatomy_appends_the_budget_table() {
        let out = run_line("loadgen ld --anatomy --queries 12 --rate 4000").unwrap();
        assert!(out.contains("latency anatomy"), "{out}");
        assert!(out.contains("sched_queue"), "{out}");
        assert!(out.contains("p99+"), "{out}");
    }

    #[test]
    fn whatif_ranks_confirms_and_reproduces_byte_for_byte() {
        let path = std::env::temp_dir().join("snpgpu_test_whatif.json");
        let line = format!(
            "whatif ld --queries 16 --rate 8000 --json {}",
            path.display()
        );
        let run_once = || {
            let report =
                run_full(&Args::parse(line.split_whitespace().map(str::to_string)).unwrap())
                    .unwrap();
            assert_eq!(report.exit, ExitCode::Ok, "{}", report.text);
            assert!(report.text.contains("within 5%"), "{}", report.text);
            std::fs::read_to_string(&path).unwrap()
        };
        let first = run_once();
        let second = run_once();
        let _ = std::fs::remove_file(&path);
        assert_eq!(first, second, "seeded what-if JSON is byte-reproducible");
        assert!(first.contains("\"tool\":\"snpgpu whatif\""), "{first}");
        assert!(first.contains("\"within_5_percent\":true"), "{first}");
    }

    #[test]
    fn whatif_rejects_malformed_perturbations() {
        let err = run_line("whatif ld --perturb warp:2").unwrap_err();
        assert!(
            err.to_string().contains("unknown perturbation kind"),
            "{err}"
        );
        let err = run_line("whatif ld --perturb kernel:zero").unwrap_err();
        assert!(err.to_string().contains("not a number"), "{err}");
    }

    #[test]
    fn loadgen_admission_knobs_require_the_flag() {
        let err = run_line("loadgen ld --shed-budget 0.5").unwrap_err();
        assert!(err.to_string().contains("requires --admission"), "{err}");
        let err = run_line("loadgen ld --admission --queue-cap 0").unwrap_err();
        assert!(err.to_string().contains("--queue-cap"), "{err}");
    }

    #[test]
    fn loadgen_chaos_matrix_survives_overload_plus_device_loss() {
        let path = std::env::temp_dir().join("snpgpu_test_overload_chaos.json");
        let line = format!("loadgen all --mode chaos --json {}", path.display());
        let report =
            run_full(&Args::parse(line.split_whitespace().map(str::to_string)).unwrap()).unwrap();
        assert_eq!(report.exit, ExitCode::Ok, "{}", report.text);
        assert!(
            report
                .text
                .contains("0 silent corruption(s) across 3 cell(s)"),
            "{}",
            report.text
        );
        let json = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let doc = snp_trace::json::parse(&json).expect("valid admission-report.json");
        let obj = doc.as_obj().unwrap();
        assert_eq!(obj["silent_corruptions"].as_num(), Some(0.0));
        assert_eq!(obj["worst_exit"].as_num(), Some(0.0));
        let cells = obj["cells"].as_arr().unwrap();
        assert_eq!(cells.len(), 3);
        for cell in cells {
            let cell = cell.as_obj().unwrap();
            let adm = cell["report"].as_obj().unwrap()["admission"]
                .as_obj()
                .unwrap();
            assert_eq!(adm["corruptions"].as_num(), Some(0.0));
            // No tenant starves: the goodput ratio stays finite and small.
            let ratio = adm["tenant_goodput_ratio"]
                .as_num()
                .expect("ratio is finite");
            assert!(ratio <= 2.0, "tenant goodput ratio {ratio} > 2");
        }
    }
}
