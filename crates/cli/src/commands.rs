//! The `snpgpu` subcommands. Each reads and checks all of its options,
//! makes one library call and renders the result as a [`CmdReport`], so
//! the command layer is directly testable.

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
use snp_load::Verdict;
use snp_microbench::recover_parameters;
use snp_popgen::forensic::{
    generate_database, generate_mixtures, generate_queries, DatabaseConfig,
};
use snp_popgen::ld_stats::ld_pair;
use snp_popgen::population::{generate_panel, PanelConfig};
use snp_popgen::IdentityScorer;
use snp_trace::json::{self, Obj, Val};
use snp_trace::summary::fmt_sig3;
use snp_trace::{Metrics, Trace, Tracer};
use snp_verify::Severity;

use crate::args::{algorithm_selection, algorithm_slug, device_selection, ArgError, Args, Range};

/// Top-level usage text.
pub const USAGE: &str = "\
snpgpu — portable SNP comparisons on simulated GPUs

USAGE: snpgpu <command> [--option value]...

COMMANDS:
  devices                      list modeled devices (Table I summary)
  config    --device D --algorithm ld|fastid|mixture [--m N --n N --snps N]
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
                               fair-queueing) scheduling, typed load shedding
                               (exit 7 past the shed budget), and brownout
                               degradation; --mode sweep steps offered load
                               and reports the latency-vs-throughput knee;
                               --mode chaos runs the combined overload+fault
                               matrix (bursty 8x load, device loss mid-run,
                               admission on) and fails on any silent
                               corruption; --anatomy appends the per-query
                               latency-anatomy table (percentile bands x
                               named critical-path segments) to the report;
                               --trace/--flight need --mode run,
                               --flight-capacity is rejected by --mode sweep
                               and --arrival by --mode chaos
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
                               run a small seeded load and dump its
                               metrics in Prometheus text format

ld / search / mixture also accept --trace F [--summary F]: record the run
and write a Chrome trace_event JSON timeline (open in Perfetto or
chrome://tracing) and a text summary with the run's metrics.

Fault profiles: none, transient, corruption, stall, loss, mixed.
ld / search / mixture also accept --fault-profile P [--fault-seed S] to run
under fault injection (P may also be loss@N: lose the device at command N);
a run that finishes on the CPU fallback exits 2. loadgen accepts the same
profiles except bare loss, whose command 9 no query reaches (--fault-at Q
arms the plan only for query Q). --fault-seed and --fault-at require
--fault-profile; --summary requires --trace.
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
}

impl From<Verdict> for ExitCode {
    fn from(verdict: Verdict) -> ExitCode {
        match verdict {
            Verdict::Ok => ExitCode::Ok,
            Verdict::SloBreach => ExitCode::SloBreach,
            Verdict::ShedBudgetExceeded => ExitCode::ShedBudgetExceeded,
            Verdict::Corruption => ExitCode::Corruption,
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

impl CmdReport {
    fn ok(text: String) -> CmdReport {
        CmdReport {
            text,
            exit: ExitCode::Ok,
        }
    }
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

/// Writes one output file; every file a command writes goes through here.
fn write_file(path: &str, data: &str) -> Result<(), CliError> {
    std::fs::write(path, data).map_err(|e| ArgError(format!("cannot write {path}: {e}")).into())
}

/// Writes `--json F`, when given, from `json()`, and names it on the
/// report's last line as `label: F`.
fn write_json(
    args: &Args,
    text: &mut String,
    label: &str,
    json: impl FnOnce() -> String,
) -> Result<(), CliError> {
    if let Some(path) = args.get("json") {
        write_file(path, &json())?;
        let _ = writeln!(text, "{label}: {path}");
    }
    Ok(())
}

/// Writes `trace` to `path` as validated Chrome trace_event JSON and
/// returns the report line naming it.
fn write_timeline(path: &str, trace: &Trace, kind: &str) -> Result<String, CliError> {
    let json = snp_trace::chrome::export_chrome_trace(trace);
    let stats = snp_trace::chrome::validate(&json)
        .map_err(|e| ArgError(format!("internal: timeline failed validation: {e}")))?;
    write_file(path, &json)?;
    Ok(format!(
        "timeline: {path} ({} slices, {} counter events, {} tracks; {kind})\n",
        stats.slices,
        stats.counters,
        trace.tracks.len()
    ))
}

/// Dispatches a parsed command line with the full exit-code taxonomy.
pub fn run_full(args: &Args) -> Result<CmdReport, CliError> {
    match args.command.as_deref() {
        Some("devices") => cmd_devices(args),
        Some("config") => cmd_config(args),
        Some("microbench") => cmd_microbench(args),
        Some("ld") => cmd_ld(args),
        Some("search") => cmd_search(args),
        Some("mixture") => cmd_mixture(args),
        Some("cpu") => cmd_cpu(args),
        Some("lint") => cmd_lint(args),
        Some("chaos") => cmd_chaos(args),
        Some("profile") => cmd_profile(args),
        Some("loadgen") => cmd_loadgen(args),
        Some("whatif") => cmd_whatif(args),
        Some("metrics") => cmd_metrics(args),
        Some(other) => Err(CliError {
            message: format!("unknown command {other:?}\n\n{USAGE}"),
            exit: ExitCode::Error,
        }),
        None => Ok(CmdReport::ok(USAGE.to_string())),
    }
}

fn cmd_devices(args: &Args) -> Result<CmdReport, CliError> {
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
    Ok(CmdReport::ok(out))
}

fn cmd_config(args: &Args) -> Result<CmdReport, CliError> {
    args.expect_only(&["device", "algorithm", "m", "n", "snps"])?;
    let dev = args.device()?;
    let [alg] = algorithm_selection(args.get_or("algorithm", "ld"))?[..] else {
        return Err(ArgError("--algorithm takes one of ld|fastid|mixture, not all".into()).into());
    };
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
    Ok(CmdReport::ok(out))
}

fn cmd_microbench(args: &Args) -> Result<CmdReport, CliError> {
    args.expect_only(&["device"])?;
    let dev = args.device()?;
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
    Ok(CmdReport::ok(out))
}

/// Parses `--fault-profile NAME` for the workload commands and `loadgen`.
/// `tuning` names the option that tunes the plan (`--fault-seed`,
/// `--fault-at`); without a profile it would do nothing, so it is a usage
/// error.
fn fault_profile_arg<'a>(
    args: &'a Args,
    tuning: &str,
) -> Result<Option<(&'a str, FaultProfile)>, ArgError> {
    let Some(name) = args.get("fault-profile") else {
        return match args.get(tuning) {
            Some(_) => Err(ArgError(format!("--{tuning} requires --fault-profile"))),
            None => Ok(None),
        };
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
    Ok(Some((name, profile)))
}

/// The options the workload commands (`ld`, `search`, `mixture`) share
/// besides the device and the data shape.
const HARNESS_OPTIONS: [&str; 4] = ["fault-profile", "fault-seed", "trace", "summary"];

/// What a workload command runs its engine under: `--fault-profile P
/// [--fault-seed S]` as an armed plan, and `--trace F [--summary F]` with
/// the tracer that records the run for them.
struct Harness {
    fault: Option<FaultPlan>,
    /// The timeline path and the optional summary path.
    trace: Option<(String, Option<String>)>,
    tracer: Tracer,
}

impl Harness {
    fn parse(args: &Args) -> Result<Harness, ArgError> {
        let fault = match fault_profile_arg(args, "fault-seed")? {
            Some((_, profile)) => Some(FaultPlan::new(
                args.get_parse("fault-seed", 42u64)?,
                profile,
            )),
            None => None,
        };
        let summary = args.get("summary").map(str::to_string);
        let trace = match args.get("trace") {
            Some(path) => Some((path.to_string(), summary)),
            None if summary.is_some() => return Err(ArgError("--summary requires --trace".into())),
            None => None,
        };
        let tracer = match trace {
            Some(_) => Tracer::enabled(),
            None => Tracer::disabled(),
        };
        Ok(Harness {
            fault,
            trace,
            tracer,
        })
    }

    /// The engine for one run on `dev`, with the device's mixture strategy.
    fn engine(&self, dev: &DeviceSpec) -> GpuEngine {
        let engine = GpuEngine::new(dev.clone())
            .with_options(EngineOptions {
                mixture: MixtureStrategy::for_device(dev),
                ..Default::default()
            })
            .with_tracer(self.tracer.clone());
        match &self.fault {
            Some(plan) => engine.with_fault_plan(plan.clone()),
            None => engine,
        }
    }

    /// Finishes a workload report: appends the recovery line when a plan
    /// was armed (exit DEGRADED when the run finished on the CPU
    /// fallback), then writes the trace artifacts, the summary with the
    /// run's `metrics`, and names them.
    fn finish(
        &self,
        mut text: String,
        recovery: Option<&RecoverySummary>,
        metrics: &Metrics,
    ) -> Result<CmdReport, CliError> {
        let mut exit = ExitCode::Ok;
        if let Some(rec) = recovery {
            let _ = writeln!(text, "{}", rec.render_line());
            if rec.degraded() {
                exit = ExitCode::Degraded;
            }
        }
        if let Some((path, summary)) = &self.trace {
            let trace = self.tracer.snapshot().expect("tracing was enabled");
            text += &write_timeline(path, &trace, "validated Chrome trace_event JSON")?;
            if let Some(summary) = summary {
                let mut view = snp_trace::summary::render_summary(&trace);
                view.push('\n');
                view.push_str(&snp_trace::summary::render_metrics(metrics));
                write_file(summary, &view)?;
                let _ = writeln!(
                    text,
                    "summary:  {summary} (hierarchical text view + metrics registry)"
                );
            }
        }
        Ok(CmdReport { text, exit })
    }
}

fn cmd_ld(args: &Args) -> Result<CmdReport, CliError> {
    let own = ["device", "snps", "samples", "seed"];
    args.expect_only(&[&own[..], &HARNESS_OPTIONS].concat())?;
    let dev = args.device()?;
    // The report names the strongest pair of distinct SNPs.
    let snps = args.get_at_least("snps", 256, 2)?;
    let samples = args.get_size("samples", 2048)?;
    let seed = args.get_parse("seed", 42u64)?;
    let harness = Harness::parse(args)?;
    let panel = generate_panel(
        &PanelConfig {
            snps,
            samples,
            ..Default::default()
        },
        seed,
    );
    let run = harness
        .engine(&dev)
        .ld_self(&panel.matrix)
        .map_err(engine_err)?;
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
    harness.finish(out, run.recovery.as_ref(), &run.metrics)
}

fn cmd_search(args: &Args) -> Result<CmdReport, CliError> {
    let own = ["device", "profiles", "snps", "queries", "noise", "seed"];
    args.expect_only(&[&own[..], &HARNESS_OPTIONS].concat())?;
    let dev = args.device()?;
    let profiles = args.get_size("profiles", 10_000)?;
    let snps = args.get_size("snps", 512)?;
    let queries = args.get_size("queries", 8)?;
    let noise = args.get_bounded("noise", Range::ErrorRate)?.unwrap_or(0.01);
    let seed = args.get_parse("seed", 42u64)?;
    let harness = Harness::parse(args)?;
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
    let run = harness
        .engine(&dev)
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
    harness.finish(out, run.recovery.as_ref(), &run.metrics)
}

fn cmd_mixture(args: &Args) -> Result<CmdReport, CliError> {
    let own = ["device", "profiles", "snps", "contributors", "seed"];
    args.expect_only(&[&own[..], &HARNESS_OPTIONS].concat())?;
    let dev = args.device()?;
    let profiles = args.get_size("profiles", 5_000)?;
    let snps = args.get_size("snps", 512)?;
    // Each contributor is a distinct database profile.
    let contributors = args.get_size("contributors", 3)?;
    if contributors > profiles {
        return Err(ArgError(format!(
            "--contributors ({contributors}) must not exceed --profiles ({profiles})"
        ))
        .into());
    }
    let seed = args.get_parse("seed", 42u64)?;
    let harness = Harness::parse(args)?;
    let db = generate_database(
        &DatabaseConfig {
            profiles,
            snps,
            ..Default::default()
        },
        seed,
    );
    let (mixtures, matrix) = generate_mixtures(&db, 1, contributors, seed + 1);
    let run = harness
        .engine(&dev)
        .mixture_analysis(&db.profiles, &matrix)
        .map_err(engine_err)?;
    let gamma = run.gamma.expect("full mode");
    let included: Vec<usize> = (0..profiles).filter(|&r| gamma.get(r, 0) == 0).collect();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "mixture analysis on {} (strategy {:?}, chosen for this microarchitecture):",
        dev.name,
        MixtureStrategy::for_device(&dev)
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
        "  modeled kernel {:.3} ms at {} G word-ops/s",
        run.timing.kernel_ns as f64 / 1e6,
        fmt_sig3(run.kernel_word_ops_per_sec / 1e9)
    );
    harness.finish(out, run.recovery.as_ref(), &run.metrics)
}

fn cmd_cpu(args: &Args) -> Result<CmdReport, CliError> {
    args.expect_only(&["snps", "samples", "seed"])?;
    let snps = args.get_size("snps", 512)?;
    let samples = args.get_size("samples", 4096)?;
    let seed = args.get_parse("seed", 42u64)?;
    let panel = snp_popgen::random_dense(snps, samples, seed);
    let engine = CpuEngine::new();
    let t0 = std::time::Instant::now();
    let gamma = engine.ld_self(&panel);
    let dt = t0.elapsed();
    let word_ops = snps * snps * panel.words_per_row();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "real CPU engine (this host): {snps} x {snps} LD over {samples} samples"
    );
    let _ = writeln!(
        out,
        "wall time {:.1} ms, {:.2} G word64-ops/s as a full GEMM (upper triangle computed, mirrored)",
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
    Ok(CmdReport::ok(out))
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

fn cmd_lint(args: &Args) -> Result<CmdReport, CliError> {
    let algorithms = args.expect_selection(&["device", "json", "deep"])?;
    let deep = args.flag("deep");
    let devs = device_selection(args.get_or("device", "all"))?;

    let mut out = String::new();
    let mut targets = Vec::new();
    let mut blocking = 0usize;
    for dev in &devs {
        for &alg in &algorithms {
            let shape = lint_shape(dev);
            let mixture = MixtureStrategy::for_device(dev);
            let engine = GpuEngine::new(dev.clone()).with_options(EngineOptions {
                mode: ExecMode::TimingOnly,
                double_buffer: true,
                mixture,
                verify: true,
                ..Default::default()
            });
            let run = engine.run_shape(shape, alg).map_err(|e| CliError {
                exit: engine_exit(&e),
                message: format!("{} / {}: {e}", dev.name, alg.name()),
            })?;
            let mut report = run.verify_report.expect("verification was enabled");
            let op = compare_op(alg, mixture);
            let plan = KernelPlan::new(dev, &run.config, op, shape.m, shape.n, shape.k_words);
            let facts = plan.facts(dev, shape.k_words);
            let mut figures = None;
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
                figures = Some((df.pressure, cp, facts.groups_per_core));
            } else {
                report.merge(snp_verify::lint_kernel(dev, &run.config, &facts));
            }
            let label = format!("{} / {}", dev.name, alg.name());
            out.push_str(&report.render_text(&label));
            if report.has_blocking() {
                blocking += 1;
            }
            targets.push((dev, alg, report, figures));
        }
    }
    write_json(args, &mut out, "machine-readable report", || {
        json::document(|o| {
            o.key("targets")
                .objs(&targets, |t, (dev, alg, report, figures)| {
                    t.key("device").str(&dev.name);
                    t.key("algorithm").str(alg.name());
                    t.key("report").obj(|r| lint_report_json(r, report));
                    if let Some((pressure, cp, groups_per_core)) = figures {
                        t.key("deep").obj(|d| {
                            d.key("max_live").int(pressure.max_live);
                            d.key("reg_count").int(pressure.reg_count);
                            d.key("chain_cycles").int(cp.chain_cycles);
                            let peak_issue = cp.pipe_issue_cycles.iter().copied().max();
                            d.key("peak_pipe_issue_cycles").int(peak_issue.unwrap_or(0));
                            d.key("lower_bound_cycles").int(cp.lower_bound_cycles());
                            let predicted =
                                cp.predicted_core_cycles(dev.n_clusters, *groups_per_core);
                            d.key("predicted_core_cycles").float(predicted, 0);
                        });
                    }
                });
        })
    })?;
    if blocking > 0 {
        return Err(ArgError(format!(
            "lint failed: {blocking} target(s) with blocking findings\n\n{out}"
        ))
        .into());
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
    Ok(CmdReport::ok(out))
}

/// One analyzer report as lint JSON: its counts, then every diagnostic.
fn lint_report_json(o: &mut Obj, report: &snp_verify::Report) {
    o.key("errors").int(report.count(Severity::Error));
    o.key("warnings").int(report.count(Severity::Warning));
    o.key("infos").int(report.count(Severity::Info));
    o.key("diagnostics").objs(&report.diagnostics, |o, d| {
        o.key("code").str(d.code);
        o.key("severity").str(&d.severity.to_string());
        o.key("message").str(&d.message);
        o.key("commands").arr(|a| {
            for &c in &d.commands {
                a.item().int(c);
            }
        });
        o.key("buffer").opt(d.buffer, Val::int);
    });
}

/// Shrinks a device's memory so the chaos workload needs several chunks —
/// checkpointing and loss-resume are only exercised multi-chunk.
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
    let algorithms = args.expect_selection(&["device", "profile", "seed", "json"])?;
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
    let mut cells = Vec::new();
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
                    seed.wrapping_add((cells.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
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
                        } else if rec.recovered() {
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
                cells.push((cdev.name.clone(), alg, profile, cell_seed, outcome, detail));
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
        cells.len()
    );
    write_json(args, &mut out, "machine-readable report", || {
        json::document(|o| {
            o.key("seed").int(seed);
            o.key("cells").objs(
                &cells,
                |c, (device, alg, profile, seed, outcome, detail)| {
                    c.key("device").str(device);
                    c.key("algorithm").str(algorithm_slug(*alg));
                    c.key("profile").str(profile);
                    c.key("seed").int(*seed);
                    c.key("outcome").str(outcome);
                    c.key("detail").str(detail);
                },
            );
            o.key("silent_corruptions").int(corruptions);
            o.key("hazards").int(hazards);
        })
    })?;
    if exit == ExitCode::Ok {
        let _ = writeln!(
            out,
            "no silent corruption: every fault was retried, detected, absorbed, or surfaced typed"
        );
    }
    Ok(CmdReport { text: out, exit })
}

/// One profiled cell as profile JSON.
fn profile_cell_json(o: &mut Obj, c: &snp_core::CellProfile) {
    o.key("device").str(&c.device);
    o.key("algorithm").str(algorithm_slug(c.algorithm));
    o.key("m").int(c.shape.m);
    o.key("n").int(c.shape.n);
    o.key("k_words").int(c.shape.k_words);
    o.key("passes").int(c.passes);
    o.key("kernel_ns").int(c.kernel_ns);
    o.key("fu").objs(&c.fu, |o, f| {
        o.key("pipeline").str(&f.pipeline);
        o.key("busy_cycles").int(f.busy_cycles);
        o.key("detailed_busy_cycles").int(f.detailed_busy_cycles);
        o.key("utilization").float(f.utilization, 6);
    });
    o.key("instrs_by_class")
        .objs(&c.instrs_by_class, |o, (class, n)| {
            o.key("class").str(class);
            o.key("count").int(*n);
        });
    o.key("bank_conflict_replays").int(c.bank_conflict_replays);
    o.key("job_cycles").int(c.job_cycles);
    o.key("occupancy").obj(|o| {
        o.key("groups_per_core").int(c.occupancy.groups_per_core);
        o.key("target_groups").int(c.occupancy.target_groups);
        o.key("achieved").float(c.occupancy.achieved, 6);
    });
    o.key("bandwidth").obj(|o| {
        o.key("bytes_moved").int(c.bandwidth.bytes_moved);
        o.key("achieved_bytes_s")
            .float(c.bandwidth.achieved_bytes_s, 1);
        o.key("peak_bytes_s").float(c.bandwidth.peak_bytes_s, 1);
        o.key("fraction").float(c.bandwidth.fraction, 6);
    });
    let r = &c.roofline;
    o.key("roofline").obj(|o| {
        o.key("arithmetic_intensity")
            .float(r.arithmetic_intensity, 6);
        o.key("ridge").float(r.ridge, 6);
        o.key("matrix_unit_ridge")
            .opt(r.matrix_unit_ridge, |v, x| v.float(x, 6));
        o.key("compute_peak_word_ops_s")
            .float(r.compute_peak_word_ops_s, 1);
        o.key("memory_peak_bytes_s").float(r.memory_peak_bytes_s, 1);
        o.key("bound").str(r.bound.label());
    });
    let d = &c.drift;
    o.key("drift").obj(|o| {
        o.key("analytic_ns").float(d.analytic_ns, 1);
        o.key("macro_ns").float(d.macro_ns, 1);
        o.key("detailed_ns").float(d.detailed_ns, 1);
        o.key("analytic_vs_macro").float(d.analytic_vs_macro, 6);
        o.key("macro_vs_detailed").float(d.macro_vs_detailed, 6);
        o.key("analytic_vs_detailed")
            .float(d.analytic_vs_detailed, 6);
        o.key("within_tolerance").bool(d.within_tolerance());
    });
}

fn cmd_profile(args: &Args) -> Result<CmdReport, CliError> {
    let algorithms = args.expect_selection(&["device", "m", "n", "snps", "json"])?;
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
            cells.push(cell);
        }
    }
    let _ = writeln!(
        out,
        "\n{} cell(s) profiled, {violations} drift violation(s)",
        cells.len()
    );
    write_json(args, &mut out, "machine-readable report", || {
        json::document(|o| {
            o.key("shape").obj(|o| {
                o.key("m").int(m);
                o.key("n").int(n);
                o.key("k_words").int(shape.k_words);
            });
            o.key("tolerances").obj(|o| {
                o.key("analytic")
                    .shortest(snp_core::ANALYTIC_DRIFT_TOLERANCE);
                o.key("engine").shortest(snp_core::ENGINE_DRIFT_TOLERANCE);
            });
            o.key("cells").objs(&cells, profile_cell_json);
            o.key("drift_violations").int(violations);
        })
    })?;
    let exit = if violations > 0 {
        ExitCode::Error
    } else {
        ExitCode::Ok
    };
    Ok(CmdReport { text: out, exit })
}

/// Parses loadgen's `--fault-profile P [--fault-at Q]` into a
/// [`snp_load::FaultSpec`]. Each query runs on a fresh plan, so a fault
/// that cannot fire within a stream of `queries` queries is a usage error.
fn loadgen_fault(args: &Args, queries: usize) -> Result<Option<snp_load::FaultSpec>, ArgError> {
    let Some((name, profile)) = fault_profile_arg(args, "fault-at")? else {
        return Ok(None);
    };
    if let ("loss", Some(at)) = (name, profile.device_loss_at) {
        return Err(ArgError(format!(
            "--fault-profile loss loses the device at host command {at}, which no \
             loadgen query reaches; use loss@N"
        )));
    }
    let at_query = args.get_opt("fault-at")?;
    if let Some(at) = at_query.filter(|&at| at >= queries) {
        return Err(ArgError(format!(
            "--fault-at ({at}) must be less than --queries ({queries})"
        )));
    }
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
    let p50_ms = args.get_bounded("slo-p50-ms", Range::Positive)?;
    let p99_ms = args.get_bounded("slo-p99-ms", Range::Positive)?;
    let budget = args.get_bounded("error-budget", Range::Fraction)?;
    let mut policy = snp_load::SloPolicy::default();
    let per_algorithm = policy.per_algorithm.iter_mut().map(|(_, slo)| slo);
    for slo in per_algorithm.chain([&mut policy.default]) {
        if let Some(ms) = p50_ms {
            slo.p50_ns = (ms * 1e6) as u64;
        }
        if let Some(ms) = p99_ms {
            slo.p99_ns = (ms * 1e6) as u64;
        }
        if let Some(b) = budget {
            slo.error_budget = b;
        }
    }
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
    let slack = args.get_bounded("deadline-slack", Range::Positive)?;
    adm.deadline_slack = slack.unwrap_or(adm.deadline_slack);
    let budget = args.get_bounded("shed-budget", Range::Fraction)?;
    adm.shed_budget = budget.unwrap_or(adm.shed_budget);
    adm.queue_cap = args.get_size("queue-cap", adm.queue_cap)?;
    Ok(adm)
}

/// Builds the load config shared by `loadgen`, `whatif` and `metrics`.
fn loadgen_config(
    args: &Args,
    algorithms: &[Algorithm],
    default_queries: usize,
) -> Result<snp_load::LoadConfig, ArgError> {
    let mut cfg = snp_load::LoadConfig::new(args.device()?, snp_load::templates_for(algorithms));
    cfg.rate_qps = args
        .get_bounded("rate", Range::Positive)?
        .unwrap_or(cfg.rate_qps);
    let arrival = args.get_or("arrival", cfg.arrival.name());
    cfg.arrival = snp_load::ArrivalKind::by_name(arrival).ok_or_else(|| {
        ArgError(format!(
            "unknown arrival process {arrival:?} (poisson|bursty)"
        ))
    })?;
    cfg.queries = args.get_size("queries", default_queries)?;
    cfg.seed = args.get_parse("seed", 42u64)?;
    cfg.fault = loadgen_fault(args, cfg.queries)?;
    cfg.slo = loadgen_slo(args)?;
    cfg.flight_capacity = args.get_size("flight-capacity", cfg.flight_capacity)?;
    cfg.anatomy = args.flag("anatomy");
    Ok(cfg)
}

fn cmd_loadgen(args: &Args) -> Result<CmdReport, CliError> {
    let algorithms = args.expect_selection(&[
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
    let mode = args.get_or("mode", "run");
    let default_queries = match mode {
        "run" => 64,
        "sweep" | "chaos" if args.get("trace").is_some() || args.get("flight").is_some() => {
            return Err(
                ArgError("--trace/--flight are per-run artifacts; use --mode run".into()).into(),
            )
        }
        "sweep" if args.get("flight-capacity").is_some() => {
            return Err(ArgError(
                "--flight-capacity sizes a run's flight recorder; use --mode run|chaos".into(),
            )
            .into())
        }
        "chaos" if args.get("arrival").is_some() => {
            return Err(ArgError(
                "--arrival is fixed in --mode chaos (always bursty); use --mode run|sweep".into(),
            )
            .into())
        }
        "sweep" | "chaos" => 48,
        other => return Err(ArgError(format!("unknown mode {other:?} (run|sweep|chaos)")).into()),
    };
    let mut cfg = loadgen_config(args, &algorithms, default_queries)?;
    cfg.admission = loadgen_admission(args, mode == "chaos")?;
    match mode {
        "sweep" => {
            let sweep = snp_load::saturation_sweep(&cfg, &snp_load::SWEEP_MULTIPLIERS);
            let mut text = sweep.render_text();
            write_json(args, &mut text, "slo report", || sweep.to_json())?;
            let exit = if sweep.breached() {
                ExitCode::SloBreach
            } else {
                ExitCode::Ok
            };
            Ok(CmdReport { text, exit })
        }
        "chaos" => {
            let chaos = snp_load::overload_chaos(&cfg);
            let mut text = chaos.render_text();
            write_json(args, &mut text, "admission report", || chaos.to_json())?;
            Ok(CmdReport {
                text,
                exit: chaos.verdict().into(),
            })
        }
        _ => {
            let report = snp_load::run(&cfg);
            let mut text = report.render_text();
            write_json(args, &mut text, "slo report", || report.to_json())?;
            if let Some(path) = args.get("trace") {
                let timeline = report.timeline().expect("run mode records");
                text += &write_timeline(path, &timeline, "query-attributed")?;
            }
            if let Some(path) = args.get("flight") {
                match (&report.postmortem, report.postmortem_json()) {
                    (Some(pm), Some(json)) => {
                        write_file(path, &json)?;
                        let _ = writeln!(text, "flight-recorder dump: {path} ({})", pm.reason);
                    }
                    _ => {
                        let _ = writeln!(
                            text,
                            "flight-recorder dump: not written \
                             (no typed fault, device loss, shed storm or SLO breach)"
                        );
                    }
                }
            }
            Ok(CmdReport {
                text,
                exit: report.verdict().into(),
            })
        }
    }
}

fn cmd_whatif(args: &Args) -> Result<CmdReport, CliError> {
    let algorithms = args.expect_selection(&[
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
    let mut cfg = loadgen_config(args, &algorithms, 24)?;
    cfg.admission = loadgen_admission(args, false)?;
    let perturbations = match args.get("perturb") {
        None => snp_load::default_perturbations(),
        Some(spec) => spec
            .split(',')
            .map(|tok| snp_load::Perturbation::parse(tok.trim()).map_err(ArgError))
            .collect::<Result<_, _>>()?,
    };
    let report = snp_load::run_whatif(&cfg, &perturbations);
    let mut text = report.render_text();
    write_json(args, &mut text, "what-if report", || report.to_json())?;
    // A confirmation miss means observation perturbed virtual timing — an
    // internal modeling error, not a property of the workload.
    let exit = if report.confirmation.within_5_percent {
        ExitCode::Ok
    } else {
        ExitCode::Error
    };
    Ok(CmdReport { text, exit })
}

fn cmd_metrics(args: &Args) -> Result<CmdReport, CliError> {
    let algorithms = args.expect_selection(&["device", "seed", "queries", "out"])?;
    let mut cfg = loadgen_config(args, &algorithms, 12)?;
    // A small seeded load whose metrics the command renders; skip
    // per-query tracing — this command is about the metrics substrate.
    cfg.record_timeline = false;
    let report = snp_load::run(&cfg);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# registry snapshot after {} seeded queries on {} (seed {})",
        report.records.len(),
        report.device,
        report.seed
    );
    out.push_str(&snp_trace::render_prometheus(&report.metrics));
    match args.get("out") {
        Some(path) => {
            write_file(path, &out)?;
            Ok(CmdReport::ok(format!("prometheus exposition: {path}\n")))
        }
        None => Ok(CmdReport::ok(out)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn run_line(line: &str) -> Result<CmdReport, CliError> {
        run_full(&Args::parse(line.split_whitespace().map(str::to_string))?)
    }

    /// Runs `line`, asserting it exits OK, and returns its report text.
    fn ok_text(line: &str) -> String {
        let report = run_line(line).unwrap_or_else(|e| panic!("{line}: {}", e.message));
        assert_eq!(report.exit, ExitCode::Ok, "{line}:\n{}", report.text);
        report.text
    }

    /// Runs `line`, asserting it is a usage error (exit 1), and returns
    /// the message.
    fn usage_err(line: &str) -> String {
        let err = run_line(line).expect_err(line);
        assert_eq!(err.exit, ExitCode::Error, "{line}");
        err.message
    }

    #[test]
    fn no_command_prints_usage() {
        assert!(ok_text("").contains("USAGE"));
    }

    #[test]
    fn unknown_command_errors_with_usage() {
        assert!(usage_err("frobnicate").contains("unknown command"));
        // The workload commands' --trace replaced the trace subcommand.
        assert!(usage_err("trace --algo ld").starts_with("unknown command \"trace\""));
    }

    #[test]
    fn devices_lists_all_five() {
        let out = ok_text("devices");
        for name in ["GTX 980", "Titan V", "Vega 64", "TC100", "Xeon"] {
            assert!(out.contains(name), "missing {name} in:\n{out}");
        }
        // The matrix unit shows up on the TC100 line only.
        assert_eq!(out.matches("mma x8 (8x8x128b").count(), 1);
    }

    #[test]
    fn config_reports_table2_values() {
        let out = ok_text("config --device titan-v --algorithm ld");
        assert!(out.contains("n_r = 1024"));
        assert!(out.contains("k_c = 383"));
        assert!(out.contains("core grid = 80 x 1"));
        // One algorithm parser: `fastid` is `search`.
        assert_eq!(
            ok_text("config --device vega-64 --algorithm fastid"),
            ok_text("config --device vega-64 --algorithm search")
        );
    }

    #[test]
    fn config_rejects_unknown_algorithm_and_device() {
        usage_err("config --algorithm nope");
        usage_err("config --algorithm all");
        usage_err("config --device GTX9999");
        // The CPU row is not a GPU target.
        usage_err("config --device xeon-e5-2620-v2");
    }

    #[test]
    fn ld_command_runs_and_reports() {
        let out = ok_text("ld --device gtx-980 --snps 48 --samples 512 --seed 7");
        assert!(out.contains("LD scan"));
        assert!(out.contains("strongest pair"));
    }

    #[test]
    fn search_command_identifies_planted_queries() {
        let out =
            ok_text("search --device vega-64 --profiles 400 --snps 256 --queries 4 --noise 0.0");
        assert!(out.contains("MATCH"));
        assert!(out.contains("[planted: correct]"));
        assert!(!out.contains("WRONG PROFILE"));
    }

    #[test]
    fn mixture_command_recovers_contributors() {
        let out = ok_text("mixture --device titan-v --profiles 300 --snps 384 --contributors 2");
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
        let out = ok_text("cpu --snps 64 --samples 512");
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
            ("ld --samples 0", "samples"),
            ("search --profiles 0", "profiles"),
            ("search --queries 0", "queries"),
            ("search --snps 0", "snps"),
            ("mixture --profiles 0", "profiles"),
            ("mixture --contributors 0", "contributors"),
            ("mixture --snps 0", "snps"),
            ("profile --m 0", "m"),
            ("profile --n 0", "n"),
            ("cpu --snps 0", "snps"),
        ] {
            assert_eq!(
                usage_err(line),
                format!("--{key} must be at least 1"),
                "{line}"
            );
        }
    }

    #[test]
    fn contributors_above_profiles_are_usage_errors_not_panics() {
        assert_eq!(
            usage_err("mixture --profiles 2 --contributors 3"),
            "--contributors (3) must not exceed --profiles (2)"
        );
    }

    #[test]
    fn out_of_range_values_are_usage_errors_not_panics() {
        for (line, message) in [
            ("search --noise 2", "--noise must be in [0, 0.5), got 2"),
            ("search --noise -1", "--noise must be in [0, 0.5), got -1"),
            ("search --noise nan", "--noise must be in [0, 0.5), got NaN"),
            ("search --noise 0.5", "--noise must be in [0, 0.5), got 0.5"),
            ("ld --snps 0", "--snps must be at least 2"),
            ("ld --snps 1 --samples 1", "--snps must be at least 2"),
            ("devices bogus", "unexpected positional argument \"bogus\""),
            (
                "config bogus --device titan-v",
                "unexpected positional argument \"bogus\"",
            ),
            (
                "loadgen ld --queries 4 --slo-p99-ms -5",
                "--slo-p99-ms must be positive, got -5",
            ),
            (
                "loadgen ld --queries 4 --slo-p50-ms nan",
                "--slo-p50-ms must be positive, got NaN",
            ),
            (
                "loadgen ld --queries 4 --error-budget 7",
                "--error-budget must be in [0, 1], got 7",
            ),
            ("loadgen ld --rate nan", "--rate must be positive, got NaN"),
            (
                "loadgen ld --admission --deadline-slack 0",
                "--deadline-slack must be positive, got 0",
            ),
            (
                "loadgen ld --admission --shed-budget 1.5",
                "--shed-budget must be in [0, 1], got 1.5",
            ),
        ] {
            assert_eq!(usage_err(line), message, "{line}");
        }
    }

    #[test]
    fn workload_trace_writes_validated_artifacts() {
        let dir = std::env::temp_dir();
        let out = dir.join("snpgpu_test_trace.json");
        let summary = dir.join("snpgpu_test_trace.txt");
        let line = format!(
            "ld --device gtx-980 --snps 48 --samples 512 --trace {} --summary {}",
            out.display(),
            summary.display()
        );
        let report = ok_text(&line);
        assert!(report.contains("strongest pair"), "{report}");
        assert!(report.contains("validated Chrome trace_event JSON"));
        let json = std::fs::read_to_string(&out).unwrap();
        let stats = snp_trace::chrome::validate(&json).unwrap();
        assert!(stats.slices > 0, "timeline must contain slices");
        let text = std::fs::read_to_string(&summary).unwrap();
        assert!(text.contains("run:"), "summary must show the run span");
        let _ = std::fs::remove_file(&out);
        let _ = std::fs::remove_file(&summary);
    }

    #[test]
    fn search_trace_writes_the_timeline_alone_and_summary_needs_trace() {
        let out = std::env::temp_dir().join("snpgpu_test_trace_fastid.json");
        let line = format!(
            "search --device tc100 --profiles 300 --snps 128 --queries 2 --trace {}",
            out.display()
        );
        let report = ok_text(&line);
        assert!(report.contains("timeline: "), "{report}");
        assert!(!report.contains("summary: "), "{report}");
        let json = std::fs::read_to_string(&out).unwrap();
        let _ = std::fs::remove_file(&out);
        snp_trace::chrome::validate(&json).unwrap();
        assert_eq!(
            usage_err("mixture --profiles 64 --snps 64 --summary s.txt"),
            "--summary requires --trace"
        );
    }

    #[test]
    fn lint_passes_clean_for_all_algorithms_and_devices() {
        let out = ok_text("lint all --device all");
        for dev in ["GTX 980", "Titan V", "Vega 64"] {
            assert!(out.contains(dev), "missing {dev} in:\n{out}");
        }
        assert!(out.contains("0 error(s), 0 warning(s)"));
        assert!(out.contains("no races, no kernel lint findings"));
    }

    #[test]
    fn lint_single_algorithm_writes_json_report() {
        let path = std::env::temp_dir().join("snpgpu_test_lint.json");
        let out = ok_text(&format!(
            "lint ld --device titan-v --json {}",
            path.display()
        ));
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
    fn lint_report_json_counts_and_escapes() {
        use snp_verify::{Diagnostic, Report};
        let mut hazard = Diagnostic::new("V001-RAW", Severity::Error, "a \"raw\"\nhazard\u{1}");
        hazard.commands = vec![3, 7];
        hazard.buffer = Some(2);
        let report = Report {
            diagnostics: vec![
                hazard,
                Diagnostic::new("V006-OVERLAP", Severity::Info, "3 overlapping pairs"),
            ],
        };
        assert_eq!(
            json::document(|o| lint_report_json(o, &report)),
            concat!(
                r#"{"errors":1,"warnings":0,"infos":1,"diagnostics":["#,
                r#"{"code":"V001-RAW","severity":"error","message":"a \"raw\"\nhazard\u0001","#,
                r#""commands":[3,7],"buffer":2},"#,
                r#"{"code":"V006-OVERLAP","severity":"info","message":"3 overlapping pairs","#,
                r#""commands":[],"buffer":null}]}"#,
                "\n"
            )
        );
    }

    #[test]
    fn lint_rejects_unknown_target_and_device() {
        usage_err("lint nope");
        usage_err("lint ld --device xeon-e5-2620-v2");
    }

    #[test]
    fn chaos_single_cell_reports_recovery() {
        let out = ok_text("chaos fastid --device gtx-980 --profile mixed --seed 7");
        assert!(out.contains("0 silent corruption(s)"), "{out}");
        assert!(out.contains("0 hazard(s)"), "{out}");
    }

    #[test]
    fn chaos_loss_profile_degrades_and_resumes_midway() {
        let out = ok_text("chaos ld --device titan-v --profile loss");
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
        ok_text(&format!(
            "chaos mixture --device vega-64 --profile transient --json {}",
            path.display()
        ));
        let json = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        for key in ["\"cells\"", "\"outcome\"", "\"silent_corruptions\":0"] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
    }

    #[test]
    fn workload_under_device_loss_exits_degraded() {
        let report = run_line("ld --device gtx-980 --fault-profile loss@3").unwrap();
        assert_eq!(report.exit, ExitCode::Degraded);
        assert!(report.text.contains("DEVICE LOST"), "{}", report.text);
        // The degraded run still computes the right answer (CPU fallback).
        let clean = ok_text("ld --device gtx-980");
        let pair = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("strongest pair"))
                .map(str::to_string)
        };
        assert_eq!(pair(&report.text), pair(&clean));
    }

    #[test]
    fn chaos_rejects_unknown_profile_and_target() {
        usage_err("chaos nope");
        usage_err("chaos ld --profile gamma-rays");
    }

    #[test]
    fn typo_in_option_is_caught() {
        assert!(usage_err("ld --snsp 100").contains("--snsp"));
    }

    #[test]
    fn loadgen_run_reports_and_writes_json() {
        let path = std::env::temp_dir().join("snpgpu_test_loadgen.json");
        let text = ok_text(&format!(
            "loadgen ld --queries 12 --json {}",
            path.display()
        ));
        assert!(text.contains("loadgen: 12 queries"), "{text}");
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
        let report = run_line("loadgen ld --queries 12 --slo-p99-ms 0.000001").unwrap();
        assert_eq!(report.exit, ExitCode::SloBreach, "{}", report.text);
        assert!(report.text.contains("BREACH"), "{}", report.text);
    }

    #[test]
    fn loadgen_verdicts_map_to_their_exit_codes_in_severity_order() {
        use snp_load::Verdict;
        let rising = [
            Verdict::Ok,
            Verdict::SloBreach,
            Verdict::ShedBudgetExceeded,
            Verdict::Corruption,
        ];
        for pair in rising.windows(2) {
            assert!(pair[0] < pair[1], "{pair:?}");
        }
        for v in rising {
            assert_eq!(ExitCode::from(v).code(), v.exit_code(), "{v:?}");
        }
    }

    #[test]
    fn loadgen_fault_run_dumps_flight_with_query_id() {
        let path = std::env::temp_dir().join("snpgpu_test_flight.json");
        let line = format!(
            "loadgen fastid --queries 16 --fault-profile loss@2 --fault-at 5 --flight {}",
            path.display()
        );
        let report = run_line(&line).unwrap();
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
    fn a_clean_loadgen_run_writes_no_flight_dump_and_names_every_trigger() {
        let path =
            std::env::temp_dir().join(format!("snpgpu_test_no_flight_{}.json", std::process::id()));
        let line = format!("loadgen ld --queries 4 --flight {}", path.display());
        let report = run_line(&line).unwrap();
        assert_eq!(report.exit, ExitCode::Ok, "{}", report.text);
        assert!(!path.exists(), "a clean run dumps nothing");
        let why = "flight-recorder dump: not written \
                   (no typed fault, device loss, shed storm or SLO breach)\n";
        assert!(report.text.ends_with(why), "{}", report.text);
    }

    #[test]
    fn fault_tuning_options_require_a_profile() {
        for (line, option) in [
            (
                "ld --device titan-v --snps 64 --samples 256 --fault-seed 7",
                "fault-seed",
            ),
            (
                "search --profiles 64 --snps 64 --fault-seed 7",
                "fault-seed",
            ),
            (
                "mixture --profiles 64 --snps 64 --fault-seed 7",
                "fault-seed",
            ),
            (
                "loadgen ld --device titan-v --queries 8 --fault-at 3",
                "fault-at",
            ),
            (
                "loadgen ld --mode sweep --queries 8 --fault-at 3",
                "fault-at",
            ),
            (
                "loadgen ld --mode chaos --queries 8 --fault-at 3",
                "fault-at",
            ),
        ] {
            let want = format!("--{option} requires --fault-profile");
            assert_eq!(usage_err(line), want, "{line}");
        }
        // Both parse `loss@N` as before: a bad index is a usage error, and a
        // tuning option next to a profile is accepted.
        for line in [
            "ld --device gtx-980 --fault-profile loss@x",
            "loadgen ld --queries 8 --fault-profile loss@x --fault-at 3",
        ] {
            assert_eq!(usage_err(line), "bad command index in \"loss@x\"", "{line}");
        }
        let seeded = run_line("ld --device gtx-980 --fault-profile loss@3 --fault-seed 7").unwrap();
        assert!(seeded.text.contains("DEVICE LOST"), "{}", seeded.text);
    }

    #[test]
    fn loadgen_rejects_faults_that_cannot_fire() {
        // Bare `loss` loses the device at host command 9, past the end of
        // every loadgen query, in every mode.
        for mode in ["run", "sweep", "chaos"] {
            let line = format!("loadgen ld --mode {mode} --queries 8 --fault-profile loss");
            assert!(usage_err(&line).ends_with("use loss@N"), "{line}");
        }
        // A query index past the stream arms no query.
        for at in [8, 9] {
            let line = format!("loadgen ld --queries 8 --fault-profile loss@2 --fault-at {at}");
            let want = format!("--fault-at ({at}) must be less than --queries (8)");
            assert_eq!(usage_err(&line), want, "{line}");
        }
        let report = run_line("loadgen ld --queries 8 --fault-profile loss@2 --fault-at 7");
        assert!(report.is_ok());
    }

    #[test]
    fn loadgen_chaos_header_names_the_armed_queries() {
        let every = ok_text("loadgen ld --mode chaos --queries 12 --fault-profile transient");
        assert!(every.contains("fault transient on every query"), "{every}");
        let one =
            ok_text("loadgen ld --mode chaos --queries 12 --fault-profile stall --fault-at 5");
        assert!(one.contains("fault stall at query 5"), "{one}");
        let default = ok_text("loadgen ld --mode chaos --queries 12");
        assert!(default.contains("fault loss@2 at query 4"), "{default}");
    }

    #[test]
    fn loadgen_sweep_rejects_per_run_artifacts() {
        let err = usage_err("loadgen ld --mode sweep --trace t.json");
        assert!(err.contains("per-run artifacts"), "{err}");
    }

    #[test]
    fn loadgen_modes_reject_the_options_they_ignore() {
        // A sweep dumps no flight recorder; chaos always arrives bursty.
        let err = usage_err("loadgen ld --mode sweep --flight-capacity 3");
        assert!(err.starts_with("--flight-capacity"), "{err}");
        let err = usage_err("loadgen ld --mode chaos --arrival poisson");
        assert!(err.starts_with("--arrival"), "{err}");
        // Each is still accepted by the modes that use it.
        for line in [
            "loadgen ld --queries 4 --flight-capacity 3 --arrival poisson",
            "loadgen ld --mode chaos --queries 4 --flight-capacity 3",
            "loadgen ld --mode sweep --queries 4 --arrival poisson",
        ] {
            assert!(run_line(line).is_ok(), "{line}");
        }
    }

    #[test]
    fn metrics_emits_prometheus_exposition() {
        // Every value is the command's own run's, so the exposition is
        // exact whatever else the process ran. The memo's lines depend on
        // the process-wide timing memo, and the schedule's task and pack
        // counts on the host's thread count: those two come from a second
        // run of the same config, which must agree with the first.
        let line = "metrics --queries 8";
        let out = ok_text(line);
        let args = Args::parse(line.split_whitespace().map(str::to_string)).unwrap();
        let algorithms = args.expect_selection(&["queries"]).unwrap();
        let mut cfg = loadgen_config(&args, &algorithms, 12).unwrap();
        cfg.record_timeline = false;
        let again = snp_load::run(&cfg).metrics;
        let count = |name| again.counter(name).expect(name);
        let (tasks, a_packs) = (count("cpu.parallel.tasks"), count("cpu.parallel.a_packs"));
        let got: Vec<&str> = out
            .lines()
            .filter(|l| !l.contains("sim_timing_cache"))
            .collect();
        let want = format!(
            "\
# registry snapshot after 8 seeded queries on Titan V (seed 42)
# TYPE cpu_parallel_a_packs_total counter
cpu_parallel_a_packs_total {a_packs}
# TYPE cpu_parallel_runs_total counter
cpu_parallel_runs_total 8
# TYPE cpu_parallel_tasks_total counter
cpu_parallel_tasks_total {tasks}
# TYPE load_latency_ns_fastid histogram
load_latency_ns_fastid_bucket{{le=\"57343\"}} 2 # {{query_id=\"7\",tenant=\"research\"}} 55813 6864937
load_latency_ns_fastid_bucket{{le=\"+Inf\"}} 2
load_latency_ns_fastid_sum 111626
load_latency_ns_fastid_count 2
# TYPE load_latency_ns_ld histogram
load_latency_ns_ld_bucket{{le=\"53247\"}} 5 # {{query_id=\"5\",tenant=\"research\"}} 50646 5281188
load_latency_ns_ld_bucket{{le=\"+Inf\"}} 5
load_latency_ns_ld_sum 253230
load_latency_ns_ld_count 5
# TYPE load_latency_ns_mixture histogram
load_latency_ns_mixture_bucket{{le=\"131071\"}} 1 # {{query_id=\"2\",tenant=\"casework\"}} 125927 851776
load_latency_ns_mixture_bucket{{le=\"+Inf\"}} 1
load_latency_ns_mixture_sum 125927
load_latency_ns_mixture_count 1
# TYPE load_queries_total counter
load_queries_total 8
# TYPE load_queue_wait_ns histogram
load_queue_wait_ns_bucket{{le=\"0\"}} 8
load_queue_wait_ns_bucket{{le=\"+Inf\"}} 8
load_queue_wait_ns_sum 0
load_queue_wait_ns_count 8
# TYPE load_retries_total counter
load_retries_total 0
# TYPE load_tenant_latency_ns histogram
load_tenant_latency_ns_bucket{{tenant=\"casework\",le=\"53247\"}} 2 # {{query_id=\"4\",tenant=\"casework\"}} 50646 4546916
load_tenant_latency_ns_bucket{{tenant=\"casework\",le=\"57343\"}} 3 # {{query_id=\"6\",tenant=\"casework\"}} 55813 5916349
load_tenant_latency_ns_bucket{{tenant=\"casework\",le=\"131071\"}} 4 # {{query_id=\"2\",tenant=\"casework\"}} 125927 851776
load_tenant_latency_ns_bucket{{tenant=\"casework\",le=\"+Inf\"}} 4
load_tenant_latency_ns_sum{{tenant=\"casework\"}} 283032
load_tenant_latency_ns_count{{tenant=\"casework\"}} 4
load_tenant_latency_ns_bucket{{tenant=\"research\",le=\"53247\"}} 3 # {{query_id=\"5\",tenant=\"research\"}} 50646 5281188
load_tenant_latency_ns_bucket{{tenant=\"research\",le=\"57343\"}} 4 # {{query_id=\"7\",tenant=\"research\"}} 55813 6864937
load_tenant_latency_ns_bucket{{tenant=\"research\",le=\"+Inf\"}} 4
load_tenant_latency_ns_sum{{tenant=\"research\"}} 207751
load_tenant_latency_ns_count{{tenant=\"research\"}} 4
# TYPE sim_profile_kernel_chunk_ns histogram
sim_profile_kernel_chunk_ns_bucket{{le=\"8191\"}} 2
sim_profile_kernel_chunk_ns_bucket{{le=\"18431\"}} 4
sim_profile_kernel_chunk_ns_bucket{{le=\"20479\"}} 9
sim_profile_kernel_chunk_ns_bucket{{le=\"98303\"}} 10
sim_profile_kernel_chunk_ns_bucket{{le=\"+Inf\"}} 10
sim_profile_kernel_chunk_ns_sum 241312
sim_profile_kernel_chunk_ns_count 10"
        );
        assert_eq!(got, want.lines().collect::<Vec<_>>(), "{out}");
        // One lookup per pass, each a hit or a miss of the shared memo.
        let memo: u64 = ["hits", "misses"]
            .iter()
            .filter_map(|kind| {
                let prefix = format!("sim_timing_cache_{kind}_total ");
                out.lines().find_map(|l| l.strip_prefix(prefix.as_str()))
            })
            .map(|n| n.parse::<u64>().unwrap())
            .sum();
        assert_eq!(memo, 8, "{out}");
    }

    #[test]
    fn loadgen_admission_sheds_typed_and_respects_budget_exit() {
        // Saturating bursty load with admission on: sheds are typed and the
        // tiny shed budget flips the exit to 7 (SHED_BUDGET_EXCEEDED).
        let report = run_line(
            "loadgen ld --admission --rate 50000 --arrival bursty --queries 32 --shed-budget 0.05",
        )
        .unwrap();
        assert_eq!(report.exit, ExitCode::ShedBudgetExceeded, "{}", report.text);
        assert!(report.text.contains("OVER BUDGET"), "{}", report.text);
        assert!(report.text.contains("tenant casework"), "{}", report.text);
    }

    #[test]
    fn loadgen_anatomy_appends_the_budget_table() {
        let out = ok_text("loadgen ld --anatomy --queries 12 --rate 4000");
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
            let text = ok_text(&line);
            assert!(text.contains("within 5%"), "{text}");
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
        let err = usage_err("whatif ld --perturb warp:2");
        assert!(err.contains("unknown perturbation kind"), "{err}");
        let err = usage_err("whatif ld --perturb kernel:zero");
        assert!(err.contains("not a number"), "{err}");
    }

    #[test]
    fn loadgen_admission_knobs_require_the_flag() {
        let err = usage_err("loadgen ld --shed-budget 0.5");
        assert!(err.contains("requires --admission"), "{err}");
        let err = usage_err("loadgen ld --admission --queue-cap 0");
        assert!(err.contains("--queue-cap"), "{err}");
    }

    #[test]
    fn loadgen_chaos_matrix_survives_overload_plus_device_loss() {
        let path = std::env::temp_dir().join("snpgpu_test_overload_chaos.json");
        let text = ok_text(&format!(
            "loadgen all --mode chaos --json {}",
            path.display()
        ));
        assert!(
            text.contains("0 silent corruption(s) across 3 cell(s)"),
            "{text}"
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

    /// A small valid line per command, and the options each class of
    /// malformed element draws on: size options, bounded float options
    /// (with a value outside their range), and name-valued options.
    struct Base {
        line: &'static str,
        sizes: &'static [&'static str],
        floats: &'static [(&'static str, &'static str)],
        names: &'static [&'static str],
        /// A tuning option given without the option it tunes, or in a mode
        /// that ignores it.
        dependent: &'static str,
    }

    const BASES: &[Base] = &[
        Base {
            line: "devices",
            sizes: &[],
            floats: &[],
            names: &[],
            dependent: "",
        },
        Base {
            line: "config",
            sizes: &["m", "n", "snps"],
            floats: &[],
            names: &["device", "algorithm"],
            dependent: "",
        },
        Base {
            line: "microbench",
            sizes: &[],
            floats: &[],
            names: &["device"],
            dependent: "",
        },
        Base {
            line: "ld --samples 64",
            sizes: &["snps"],
            floats: &[],
            names: &["device", "fault-profile"],
            dependent: "--fault-seed 7",
        },
        Base {
            line: "search --profiles 32 --snps 64",
            sizes: &["queries"],
            floats: &[("noise", "0.5"), ("noise", "-0.01"), ("noise", "nan")],
            names: &["device", "fault-profile"],
            dependent: "--summary s.txt",
        },
        Base {
            line: "mixture --profiles 32 --snps 64",
            sizes: &["contributors"],
            floats: &[],
            names: &["device", "fault-profile"],
            dependent: "--fault-seed 7",
        },
        Base {
            line: "cpu --samples 64",
            sizes: &["snps"],
            floats: &[],
            names: &[],
            dependent: "",
        },
        Base {
            line: "lint ld",
            sizes: &[],
            floats: &[],
            names: &["device"],
            dependent: "",
        },
        Base {
            line: "chaos ld --device titan-v",
            sizes: &[],
            floats: &[],
            names: &["profile"],
            dependent: "",
        },
        Base {
            line: "profile ld --device titan-v",
            sizes: &["m", "n", "snps"],
            floats: &[],
            names: &[],
            dependent: "",
        },
        Base {
            line: "loadgen ld --admission",
            sizes: &["queries", "queue-cap", "flight-capacity"],
            floats: &[
                ("rate", "0"),
                ("rate", "nan"),
                ("slo-p50-ms", "-1"),
                ("slo-p99-ms", "0"),
                ("error-budget", "1.5"),
                ("deadline-slack", "-2"),
                ("shed-budget", "nan"),
            ],
            names: &["device", "arrival", "mode", "fault-profile"],
            dependent: "--fault-at 1",
        },
        Base {
            line: "loadgen ld --mode sweep --queries 4",
            sizes: &[],
            floats: &[],
            names: &[],
            dependent: "--flight-capacity 3",
        },
        Base {
            line: "loadgen ld --mode chaos --queries 4",
            sizes: &[],
            floats: &[],
            names: &[],
            dependent: "--arrival poisson",
        },
        Base {
            line: "whatif ld --queries 4",
            sizes: &["queue-cap"],
            floats: &[("rate", "-inf"), ("deadline-slack", "0")],
            names: &["device", "arrival", "perturb"],
            dependent: "--shed-budget 0.5",
        },
        Base {
            line: "metrics ld",
            sizes: &["queries"],
            floats: &[],
            names: &["device"],
            dependent: "",
        },
    ];

    /// `base` with one malformed element: `class` picks among the classes
    /// that apply to the command, `pick` among the options the class draws
    /// on, and `at` where the element goes among the base line's options.
    fn malformed(base: &Base, class: usize, pick: usize, at: usize) -> Vec<String> {
        let mut tokens: Vec<String> = base.line.split_whitespace().map(str::to_string).collect();
        let nth = |options: &[&'static str]| options.get(pick % options.len().max(1)).copied();
        let mut elements = vec![format!("--bogus-{pick} 1"), "--seed 1 --seed 2".to_string()];
        elements.extend(nth(base.sizes).map(|k| format!("--{k} 12x")));
        elements.extend(nth(base.sizes).map(|k| format!("--{k} 0")));
        let float = base.floats.get(pick % base.floats.len().max(1));
        elements.extend(float.map(|(k, v)| format!("--{k} {v}")));
        elements.extend(nth(base.names).map(|k| format!("--{k} nope")));
        elements.extend((!base.dependent.is_empty()).then(|| base.dependent.to_string()));
        if base.line.starts_with("mixture") {
            elements.push("--contributors 33".to_string());
        }
        match class % (elements.len() + 3) {
            0 => tokens[0] = "frobnicate".to_string(),
            // A valued option as the last token has no value.
            1 => tokens.push("--seed".to_string()),
            2 => tokens.insert(1, "bogus".to_string()),
            c => {
                // Options are read in any order: insert at an option boundary.
                let first = tokens.iter().position(|t| t.starts_with("--"));
                let boundaries: Vec<usize> = (first.unwrap_or(tokens.len())..=tokens.len())
                    .filter(|&i| i == tokens.len() || tokens[i].starts_with("--"))
                    .collect();
                let i = boundaries[at % boundaries.len()];
                let element = elements[c - 3].split_whitespace().map(str::to_string);
                tokens.splice(i..i, element);
            }
        }
        tokens
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// One malformed element in an otherwise valid command line is a
        /// usage error with a message: never a panic, never a run.
        #[test]
        fn malformed_command_lines_are_typed_usage_errors(
            command in 0..BASES.len(),
            class in 0usize..64,
            pick in 0usize..64,
            at in 0usize..8,
        ) {
            let tokens = malformed(&BASES[command], class, pick, at);
            let line = tokens.join(" ");
            let result = Args::parse(tokens).map_err(CliError::from).and_then(|a| run_full(&a));
            let err = result.map(|r| r.text).expect_err(&line);
            prop_assert_eq!(err.exit, ExitCode::Error, "{}", line);
            prop_assert!(!err.message.is_empty(), "{}", line);
        }
    }

    #[test]
    fn malformed_bases_are_valid() {
        // The property's errors come from the malformed element alone.
        for base in BASES {
            let report =
                run_line(base.line).unwrap_or_else(|e| panic!("{}: {}", base.line, e.message));
            assert_eq!(report.exit, ExitCode::Ok, "{}", base.line);
        }
    }
}
