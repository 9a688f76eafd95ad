//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process against the workspace crates and
//! prints, as the last line of standard output, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` a separate traced
//! run prints the per-layer ones. README.md documents both.

mod layers;
mod measure;
mod record;
mod spans;
mod stats;
mod workloads;

use std::process::{Command, ExitCode};
use std::time::Instant;

use measure::{timed_loop, Budget, LoopStats};
use stats::{median, quantile};
use workloads::{
    CpuFastId, CpuLd, SimPaper, SimServe, Workload, FASTID_PROFILES, FASTID_SNPS, LD_SAMPLES,
    LD_SNPS, PAPER_PROFILES, SERVE_QUERIES,
};

/// Fewest ops a timed phase runs: the p90 then has ten samples beyond it.
const MIN_OPS: usize = 100;
/// Fresh processes that each time one set-up; `setup_s` and `peak_rss_mb`
/// are medians over them and the measuring process.
const SETUP_PROBES: usize = 5;

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_probe: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            args.setup_probe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            workloads::NAMES,
            args.workload
        ));
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {}", args.seconds));
    }
    Ok(args)
}

/// One metric value with its unit.
pub struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

impl Metric {
    /// A named value.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Renders the result line. Values keep every digit Rust prints for them.
fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Set-up of one workload instance, up to the end of its first op.
struct SetUp<W: Workload> {
    w: W,
    first: W::Out,
    first_ms: f64,
    setup_s: f64,
}

fn set_up<W: Workload>(make: &dyn Fn() -> W) -> SetUp<W> {
    let t0 = Instant::now();
    let mut w = make();
    let t1 = Instant::now();
    let first = w.op(0);
    let first_ms = t1.elapsed().as_secs_f64() * 1e3;
    SetUp {
        w,
        first,
        first_ms,
        setup_s: t0.elapsed().as_secs_f64(),
    }
}

/// Times `SETUP_PROBES` set-ups, each in a fresh copy of this process, so
/// every sample pays the lazy process-wide work a CLI user pays per run.
/// Returns each sample's `(set-up seconds, peak RSS in MiB)`.
fn setup_samples(args: &Args) -> Result<Vec<(f64, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut out = Vec::new();
    for _ in 0..SETUP_PROBES {
        let o = Command::new(&exe)
            .args(["--workload", &args.workload, "--seed"])
            .arg(args.seed.to_string())
            .arg("--setup-probe")
            .output()
            .map_err(|e| format!("spawn set-up probe: {e}"))?;
        if !o.status.success() {
            return Err(format!(
                "set-up probe failed: {}",
                String::from_utf8_lossy(&o.stderr)
            ));
        }
        let text = String::from_utf8_lossy(&o.stdout);
        let mut fields = text.split_whitespace().map(str::parse::<f64>);
        match (fields.next(), fields.next()) {
            (Some(Ok(secs)), Some(Ok(rss))) => out.push((secs, rss)),
            _ => return Err(format!("set-up probe printed {text:?}")),
        }
    }
    Ok(out)
}

/// Everything one run measured, before it becomes metrics.
pub struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
    log: Vec<String>,
}

fn end_to_end<W: Workload>(args: &Args, make: &dyn Fn() -> W) -> Result<Outcome, String> {
    let mut setups = setup_samples(args)?;
    let SetUp {
        mut w,
        first,
        first_ms,
        setup_s,
    } = set_up(make);
    setups.push((setup_s, record::peak_rss_mb()));
    let setup_secs: Vec<f64> = setups.iter().map(|s| s.0).collect();
    let setup_rss: Vec<f64> = setups.iter().map(|s| s.1).collect();
    let t_oracle = Instant::now();
    w.prepare_oracle();
    let oracle_s = t_oracle.elapsed().as_secs_f64();
    let mut warm = LoopStats::default();
    let verdict = w.check(0, &first);
    warm.record(first_ms, verdict);
    drop(first);

    let budget = Budget {
        seconds: args.seconds,
        min_ops: MIN_OPS,
    };
    let stats = timed_loop(&mut w, 1, budget, |_, _| {});
    let virt = w.virt();
    let failed = warm.failed + stats.failed;
    let attempted = warm.attempted() + stats.attempted();
    let ms = &stats.op_ms;
    // Throughput of one cycle of the mix from the median time of each op
    // in it (op i of the timed phase is cycle position (1 + i) % cycle).
    let cycle = w.cycle_len();
    let mut by_pos = vec![Vec::new(); cycle];
    for (j, &t) in ms.iter().enumerate() {
        by_pos[(1 + j) % cycle].push(t);
    }
    let cycle_s: f64 = by_pos.iter().map(|v| median(v)).sum::<f64>() / 1e3;
    let cycle_word_ops: f64 = (0..cycle).map(|p| w.word_ops(p)).sum();
    let cycle_queries: f64 = (0..cycle).map(|p| w.queries(p)).sum();
    let metrics = vec![
        Metric::new("setup_s", median(&setup_secs), "s"),
        Metric::new("op_p50_ms", median(ms), "ms"),
        Metric::new("op_p90_ms", quantile(ms, 0.9), "ms"),
        Metric::new("word_ops_per_s", cycle_word_ops / cycle_s, "word-op/s"),
        Metric::new("queries_per_s", cycle_queries / cycle_s, "query/s"),
        Metric::new("peak_rss_mb", median(&setup_rss), "MiB"),
        Metric::new("virt_busy_ms", virt.busy_ns / 1e6, "virt-ms"),
        Metric::new("virt_p99_ms", virt.p99_ns / 1e6, "virt-ms"),
        Metric::new("virt_goodput_qps", virt.goodput_qps, "virt-query/s"),
    ];
    let mut log = vec![
        format!(
            "set-up samples (s, MiB): {:?}",
            setups
                .iter()
                .map(|(s, m)| format!("{s:.4} {m:.2}"))
                .collect::<Vec<_>>()
        ),
        format!("oracle_s: {oracle_s:.4}"),
        format!("timed ops: {} (+1 warm-up)", stats.attempted()),
    ];
    if let Some(e) = warm.first_error.or(stats.first_error) {
        log.push(format!("first failure: {e}"));
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        log,
    })
}

/// Runs one workload in the mode `args` selects. A set-up probe prints its
/// sample and returns `None`.
fn run_with<W: Workload + 'static>(
    args: &Args,
    make: &dyn Fn() -> W,
) -> Result<Option<Outcome>, String> {
    if args.setup_probe {
        let s = set_up(make);
        std::hint::black_box(&s.first);
        println!("{} {}", s.setup_s, record::peak_rss_mb());
        return Ok(None);
    }
    let out = if args.trace {
        let label = format!("{}-{}", args.workload, args.seed);
        layers::traced(args.seconds, args.seed, &label, make)?
    } else {
        end_to_end(args, make)?
    };
    if let Some(m) = out.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is {}", m.name, m.value));
    }
    Ok(Some(out))
}

fn run(args: &Args) -> Result<Option<Outcome>, String> {
    let seed = args.seed;
    match args.workload.as_str() {
        "cpu-ld" => run_with(args, &|| CpuLd::setup(seed, LD_SNPS, LD_SAMPLES)),
        "cpu-fastid" => run_with(args, &|| {
            CpuFastId::setup(seed, FASTID_PROFILES, FASTID_SNPS)
        }),
        "sim-paper" => run_with(args, &|| {
            SimPaper::setup(seed, LD_SNPS, LD_SAMPLES, PAPER_PROFILES)
        }),
        "sim-serve" => run_with(args, &|| SimServe::setup(seed, SERVE_QUERIES)),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let rec = record::RunRecord::start();
    let wall = Instant::now();
    match run(&args) {
        Ok(None) => ExitCode::SUCCESS,
        Ok(Some(o)) => {
            for line in &o.log {
                eprintln!("perfbench: {line}");
            }
            let rec = rec.finish(&args.workload, args.seed, args.trace, wall.elapsed());
            println!("{rec}");
            println!(
                "{}",
                result_line(o.correct, o.attempted, o.failed, &o.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
