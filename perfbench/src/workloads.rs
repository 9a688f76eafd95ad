//! The four workloads. Each one builds its inputs from the seed (the same
//! way the `snpgpu` CLI does, through `snp-popgen`), runs one op per call,
//! and checks every op's output against the benchmark's own oracle.
//!
//! An op is timed around the program call only; [`Workload::check`] runs
//! after the clock stops.

use snp_bitmat::{reference_gamma, BitMatrix, CompareOp, CountMatrix};
use snp_core::{
    profile_cell, CellProfile, CpuModel, EngineOptions, ExecMode, GpuEngine, MixtureStrategy,
    RunReport,
};
use snp_cpu::CpuEngine;
use snp_gpu_model::{devices, Algorithm, DeviceSpec, ProblemShape, WordOpKind};
use snp_load::{AdmissionConfig, ArrivalKind, LoadConfig, LoadReport, Template};
use snp_popgen::forensic::{generate_database, generate_mixtures, generate_queries};
use snp_popgen::{generate_panel, Database, DatabaseConfig, PanelConfig};

use crate::spans::Recorder;
use crate::stats::{fnv64, splitmix64};

/// Workload names. `BENCHMARK.json` gates the two CPU workloads only: on a
/// shared 2-vCPU host the spread of `sim-paper` and `sim-serve` between
/// runs exceeds any bound the gate allows (README.md, Noise). Both still
/// run by name, and every traced run times their layers.
pub const NAMES: [&str; 4] = ["cpu-ld", "cpu-fastid", "sim-paper", "sim-serve"];

/// Modeled (virtual-time) outputs of one op cycle. Deterministic for a
/// seed: a move is a model change, never a speed-up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Virt {
    /// Modeled busy time of one cycle, virtual ns.
    pub busy_ns: f64,
    /// Nearest-rank p99 of the modeled per-query latency, virtual ns.
    pub p99_ns: f64,
    /// Queries completed per virtual second.
    pub goodput_qps: f64,
}

/// One benchmark workload.
pub trait Workload {
    /// What one op returns for checking.
    type Out;

    /// Ops in one fixed cycle of the mix; the timed phase runs whole cycles.
    fn cycle_len(&self) -> usize {
        1
    }

    /// Runs op `i`: exactly the program call a user makes, nothing else.
    fn op(&mut self, i: usize) -> Self::Out;

    /// The program call an op makes, as its span name in the traced run.
    fn call(&self) -> &'static str;

    /// Runs op `i` with a span around each program call it makes.
    fn op_traced(&mut self, r: &mut Recorder, i: usize) -> Self::Out {
        let call = self.call();
        r.span(call, None, |_| self.op(i)).0
    }

    /// The CPU GEMM operands of the op, where it runs one; the traced
    /// run's snp-cpu probes use them.
    fn cpu_operands(&self) -> Option<(&BitMatrix<u64>, &BitMatrix<u64>, CompareOp)> {
        None
    }

    /// Computes the expected results. Timed apart from set-up.
    fn prepare_oracle(&mut self);

    /// Checks op `i`'s output against the oracle.
    fn check(&mut self, i: usize, out: &Self::Out) -> Result<(), String>;

    /// Queries answered by op `i`.
    fn queries(&self, i: usize) -> f64;

    /// 64-bit word-ops (`m·n·k_words` of every `γ` computed) of op `i`.
    fn word_ops(&self, i: usize) -> f64;

    /// The cycle's modeled outputs; valid once every op of a cycle passed
    /// [`check`](Self::check).
    fn virt(&self) -> Virt;
}

/// A small seed-derived trim of a problem dimension (0–7), so that modeled
/// outputs differ between seeds while wall-clock work moves by under 1%.
fn trim(seed: u64, salt: u64) -> usize {
    (splitmix64(seed ^ salt) % 8) as usize
}

/// Digest of a `γ` matrix: shape plus every count in row-major order.
pub fn gamma_digest(g: &CountMatrix) -> u64 {
    let shape = [g.rows() as u64, g.cols() as u64];
    fnv64(
        shape
            .into_iter()
            .chain(g.as_slice().iter().map(|&v| u64::from(v))),
    )
}

fn check_gamma(got: &CountMatrix, want: u64) -> Result<(), String> {
    let d = gamma_digest(got);
    if d == want {
        Ok(())
    } else {
        Err(format!("gamma digest {d:#018x} != oracle {want:#018x}"))
    }
}

fn cpu_model_ns(op: WordOpKind, m: usize, n: usize, bits: usize) -> f64 {
    CpuModel::ivy_bridge_workstation().time_ns_for_bits(op, m, n, bits)
}

fn cpu_virt(model_ns: f64, queries: f64) -> Virt {
    Virt {
        busy_ns: model_ns,
        p99_ns: model_ns,
        goodput_qps: queries / (model_ns * 1e-9),
    }
}

/// LD shape of the cpu-ld and sim-paper workloads.
pub const LD_SNPS: usize = 1024;
/// Haplotypes per LD panel.
pub const LD_SAMPLES: usize = 4096;

/// Generates the seed's LD panel the way `snpgpu trace ld` does.
pub fn ld_panel(seed: u64, snps: usize, samples: usize) -> BitMatrix<u64> {
    generate_panel(
        &PanelConfig {
            snps,
            samples,
            ..Default::default()
        },
        seed,
    )
    .matrix
}

/// `cpu-ld`: `CpuEngine::new().ld_self`, the AND self-comparison on the
/// RowBlocks schedule.
pub struct CpuLd {
    engine: CpuEngine,
    /// The panel every op compares with itself.
    pub panel: BitMatrix<u64>,
    expected: u64,
}

impl CpuLd {
    /// Builds the panel (`snps` trimmed by 0–7 per seed) and the engine.
    pub fn setup(seed: u64, snps: usize, samples: usize) -> CpuLd {
        CpuLd {
            engine: CpuEngine::new(),
            panel: ld_panel(seed, snps - trim(seed, 1), samples),
            expected: 0,
        }
    }
}

impl Workload for CpuLd {
    type Out = CountMatrix;

    fn op(&mut self, _i: usize) -> CountMatrix {
        self.engine.ld_self(&self.panel)
    }

    fn call(&self) -> &'static str {
        "cpu.CpuEngine::ld_self"
    }

    fn cpu_operands(&self) -> Option<(&BitMatrix<u64>, &BitMatrix<u64>, CompareOp)> {
        Some((&self.panel, &self.panel, CompareOp::And))
    }

    fn prepare_oracle(&mut self) {
        self.expected = gamma_digest(&reference_gamma(&self.panel, &self.panel, CompareOp::And));
    }

    fn check(&mut self, _i: usize, out: &CountMatrix) -> Result<(), String> {
        check_gamma(out, self.expected)
    }

    fn queries(&self, _i: usize) -> f64 {
        1.0
    }

    fn word_ops(&self, _i: usize) -> f64 {
        let p = &self.panel;
        (p.rows() * p.rows() * p.words_per_row()) as f64
    }

    fn virt(&self) -> Virt {
        let p = &self.panel;
        cpu_virt(
            cpu_model_ns(WordOpKind::And, p.rows(), p.rows(), p.cols()),
            1.0,
        )
    }
}

/// Queries per FastID batch (cpu-fastid and the sim-paper FastID cells).
pub const FASTID_QUERIES: usize = 32;
/// SNPs per forensic profile.
pub const FASTID_SNPS: usize = 1024;
/// Profiles in the cpu-fastid database.
pub const FASTID_PROFILES: usize = 40_000;

/// A FastID database with a planted query batch.
pub struct Forensic {
    /// `profiles × snps` reference database.
    pub db: Database,
    /// `FASTID_QUERIES × snps` query batch.
    pub queries: BitMatrix<u64>,
    /// The planted source row of each query (`None` for non-members).
    pub truth: Vec<Option<usize>>,
}

/// Generates the seed's database and query batch: half the queries are
/// noisy copies of database rows, half are non-members.
pub fn forensic(seed: u64, profiles: usize, snps: usize) -> Forensic {
    let db = generate_database(
        &DatabaseConfig {
            profiles,
            snps,
            ..Default::default()
        },
        seed,
    );
    let qs = generate_queries(&db, FASTID_QUERIES, FASTID_QUERIES / 2, 0.01, seed ^ 0x51);
    Forensic {
        db,
        queries: qs.queries,
        truth: qs.truth,
    }
}

/// `cpu-fastid`: `CpuEngine::new().identity_search` of one query batch,
/// on the ColumnStrips schedule with B-packing.
pub struct CpuFastId {
    engine: CpuEngine,
    /// Database and queries.
    pub data: Forensic,
    expected: u64,
}

impl CpuFastId {
    /// Builds the database (`profiles` trimmed by 0–7 per seed), the
    /// queries and the engine.
    pub fn setup(seed: u64, profiles: usize, snps: usize) -> CpuFastId {
        CpuFastId {
            engine: CpuEngine::new(),
            data: forensic(seed, profiles - trim(seed, 2), snps),
            expected: 0,
        }
    }
}

/// Checks that each planted query's closest profile is its source.
fn check_planted(g: &CountMatrix, truth: &[Option<usize>]) -> Result<(), String> {
    for (q, t) in truth.iter().enumerate() {
        if let Some(src) = *t {
            let best = g.argmin_in_row(q);
            if best != Some(src) {
                return Err(format!("query {q}: argmin {best:?}, planted {src}"));
            }
        }
    }
    Ok(())
}

impl Workload for CpuFastId {
    type Out = CountMatrix;

    fn op(&mut self, _i: usize) -> CountMatrix {
        self.engine
            .identity_search(&self.data.queries, &self.data.db.profiles)
    }

    fn call(&self) -> &'static str {
        "cpu.CpuEngine::identity_search"
    }

    fn cpu_operands(&self) -> Option<(&BitMatrix<u64>, &BitMatrix<u64>, CompareOp)> {
        Some((&self.data.queries, &self.data.db.profiles, CompareOp::Xor))
    }

    fn prepare_oracle(&mut self) {
        let d = &self.data;
        self.expected = gamma_digest(&reference_gamma(&d.queries, &d.db.profiles, CompareOp::Xor));
    }

    fn check(&mut self, _i: usize, out: &CountMatrix) -> Result<(), String> {
        check_gamma(out, self.expected)?;
        check_planted(out, &self.data.truth)
    }

    fn queries(&self, _i: usize) -> f64 {
        self.data.queries.rows() as f64
    }

    fn word_ops(&self, _i: usize) -> f64 {
        let d = &self.data;
        let db = &d.db.profiles;
        (d.queries.rows() * db.rows() * db.words_per_row()) as f64
    }

    fn virt(&self) -> Virt {
        let d = &self.data;
        let db = &d.db.profiles;
        let ns = cpu_model_ns(WordOpKind::Xor, d.queries.rows(), db.rows(), db.cols());
        cpu_virt(ns, self.queries(0))
    }
}

/// Profiles in the sim-paper FastID and mixture cells.
pub const PAPER_PROFILES: usize = 20_000;
/// Mixtures in the sim-paper mixture cell.
pub const PAPER_MIXTURES: usize = 4;
/// `snpgpu profile`'s default shape: 2048 × 2048 over 8192 SNPs.
pub const PROFILE_SHAPE: ProblemShape = ProblemShape {
    m: 2048,
    n: 2048,
    k_words: 256,
};
/// The paper's three algorithms, in `snpgpu`'s order.
pub const ALGORITHMS: [Algorithm; 3] = [
    Algorithm::LinkageDisequilibrium,
    Algorithm::IdentitySearch,
    Algorithm::MixtureAnalysis,
];

/// Short name of an algorithm (`snpgpu`'s slugs).
pub fn alg_slug(a: Algorithm) -> &'static str {
    match a {
        Algorithm::LinkageDisequilibrium => "ld",
        Algorithm::IdentitySearch => "fastid",
        Algorithm::MixtureAnalysis => "mixture",
    }
}

/// Short name of a device (`snpgpu`'s `--device` spelling).
pub fn device_slug(d: &DeviceSpec) -> String {
    d.name
        .chars()
        .filter(char::is_ascii_alphanumeric)
        .collect::<String>()
        .to_ascii_lowercase()
}

/// The engine options `snpgpu trace` uses: Full mode, double buffering,
/// and the mixture strategy the device prefers.
pub fn paper_engine(dev: &DeviceSpec) -> GpuEngine {
    GpuEngine::new(dev.clone()).with_options(EngineOptions {
        mode: ExecMode::Full,
        mixture: if dev.fused_andnot {
            MixtureStrategy::Direct
        } else {
            MixtureStrategy::PreNegate
        },
        ..Default::default()
    })
}

/// One algorithm's operands.
pub struct Operands {
    /// Left operand (panel, queries, or references).
    pub a: BitMatrix<u64>,
    /// Right operand (panel, database, or mixtures).
    pub b: BitMatrix<u64>,
    /// The CPU-side word operator defining the result.
    pub op: CompareOp,
}

/// A sim-paper op's output.
pub struct CellOut {
    /// The Full-mode engine run.
    pub run: RunReport,
    /// The profiler's report at [`PROFILE_SHAPE`].
    pub profile: CellProfile,
}

/// `sim-paper`: one algorithm × device cell per op, cycling through the
/// 3 × 4 matrix in a fixed order (device-major).
pub struct SimPaper {
    /// Operands per algorithm, in [`ALGORITHMS`] order.
    pub operands: Vec<Operands>,
    /// One engine per device, in `all_gpus` order.
    pub engines: Vec<GpuEngine>,
    expected: Vec<u64>,
    busy_ns: Vec<Option<u64>>,
    kernel_ns: Vec<Option<u64>>,
}

impl SimPaper {
    /// Builds the three algorithms' inputs (LD panel and FastID database
    /// trimmed by 0–7 rows per seed) and one engine per device.
    pub fn setup(seed: u64, ld_snps: usize, samples: usize, profiles: usize) -> SimPaper {
        let panel = ld_panel(seed, ld_snps - trim(seed, 3), samples);
        let f = forensic(seed ^ 0xF0, profiles - trim(seed, 4), FASTID_SNPS);
        // Mixtures are formed from, and compared against, the same
        // reference database the FastID cell searches.
        let (_, mixtures) = generate_mixtures(&f.db, PAPER_MIXTURES, 2, seed ^ 0x3C);
        let operands = vec![
            Operands {
                a: panel.clone(),
                b: panel,
                op: CompareOp::And,
            },
            Operands {
                a: f.queries,
                b: f.db.profiles.clone(),
                op: CompareOp::Xor,
            },
            Operands {
                a: f.db.profiles,
                b: mixtures,
                op: CompareOp::AndNot,
            },
        ];
        let engines: Vec<GpuEngine> = devices::all_gpus().iter().map(paper_engine).collect();
        let cells = engines.len() * ALGORITHMS.len();
        SimPaper {
            operands,
            engines,
            expected: Vec::new(),
            busy_ns: vec![None; cells],
            kernel_ns: vec![None; cells],
        }
    }

    /// `(device index, algorithm index)` of op `i`.
    pub fn cell(&self, i: usize) -> (usize, usize) {
        let c = i % self.cycle_len();
        (c / ALGORITHMS.len(), c % ALGORITHMS.len())
    }

    /// `<device>.<alg>` label of op `i`.
    pub fn cell_label(&self, i: usize) -> String {
        let (d, a) = self.cell(i);
        format!(
            "{}.{}",
            device_slug(self.engines[d].spec()),
            alg_slug(ALGORITHMS[a])
        )
    }

    /// Modeled `(kernel_ns, busy_ns)` of each cell, in cycle order.
    pub fn cell_virt(&self) -> Vec<(u64, u64)> {
        self.kernel_ns
            .iter()
            .zip(&self.busy_ns)
            .map(|(k, b)| (k.unwrap_or(0), b.unwrap_or(0)))
            .collect()
    }
}

impl Workload for SimPaper {
    type Out = CellOut;

    fn cycle_len(&self) -> usize {
        self.engines.len() * ALGORITHMS.len()
    }

    fn op(&mut self, i: usize) -> CellOut {
        self.op_traced(&mut Recorder::disabled(), i)
    }

    fn call(&self) -> &'static str {
        "core.GpuEngine::compare"
    }

    fn op_traced(&mut self, r: &mut Recorder, i: usize) -> CellOut {
        let (d, a) = self.cell(i);
        let o = &self.operands[a];
        let engine = &self.engines[d];
        let run = r
            .span("core.GpuEngine::compare", None, |_| {
                engine.compare(&o.a, &o.b, ALGORITHMS[a])
            })
            .0
            .expect("fault-free Full-mode run");
        let profile = r
            .span("core.profile_cell", None, |_| {
                profile_cell(engine.spec(), ALGORITHMS[a], PROFILE_SHAPE)
            })
            .0
            .expect("profile cell");
        CellOut { run, profile }
    }

    fn cpu_operands(&self) -> Option<(&BitMatrix<u64>, &BitMatrix<u64>, CompareOp)> {
        let ld = &self.operands[0];
        Some((&ld.a, &ld.b, ld.op))
    }

    fn prepare_oracle(&mut self) {
        self.expected = self
            .operands
            .iter()
            .map(|o| gamma_digest(&reference_gamma(&o.a, &o.b, o.op)))
            .collect();
    }

    fn check(&mut self, i: usize, out: &CellOut) -> Result<(), String> {
        let (_, a) = self.cell(i);
        let gamma = out
            .run
            .gamma
            .as_ref()
            .ok_or("Full-mode run returned no gamma")?;
        check_gamma(gamma, self.expected[a])?;
        out.run.timing.validate()?;
        if !out.profile.drift.within_tolerance() {
            return Err(format!(
                "profile drift {:.4} outside tolerance",
                out.profile.drift.max_drift()
            ));
        }
        let c = i % self.cycle_len();
        for (slot, v) in [
            (&mut self.busy_ns[c], out.run.timing.busy_ns()),
            (&mut self.kernel_ns[c], out.run.timing.kernel_ns),
        ] {
            match *slot {
                Some(prev) if prev != v => {
                    return Err(format!("modeled time moved between cycles: {prev} -> {v}"))
                }
                _ => *slot = Some(v),
            }
        }
        Ok(())
    }

    fn queries(&self, _i: usize) -> f64 {
        1.0
    }

    fn word_ops(&self, i: usize) -> f64 {
        let o = &self.operands[self.cell(i).1];
        (o.a.rows() * o.b.rows() * o.a.words_per_row()) as f64
    }

    fn virt(&self) -> Virt {
        let mut busy: Vec<u64> = self.busy_ns.iter().map(|b| b.unwrap_or(0)).collect();
        busy.sort_unstable();
        let total: u64 = busy.iter().sum();
        let p99 = snp_load::percentile(&busy, 0.99);
        Virt {
            busy_ns: total as f64,
            p99_ns: p99 as f64,
            goodput_qps: busy.len() as f64 / (total as f64 * 1e-9),
        }
    }
}

/// Queries per sim-serve replay.
pub const SERVE_QUERIES: usize = 1024;
/// Offered rate of the sim-serve stream, queries per virtual second.
pub const SERVE_RATE_QPS: f64 = 4_000.0;

/// The sim-serve replay config: titan-v, every template, bursty arrivals,
/// admission on with standard quotas, timeline recorded (`snpgpu loadgen
/// all --device titan-v --admission --arrival bursty --rate 4000`).
pub fn serve_config(seed: u64, queries: usize) -> LoadConfig {
    let mut cfg = LoadConfig::new(devices::titan_v(), snp_load::templates_for(&ALGORITHMS));
    cfg.rate_qps = SERVE_RATE_QPS;
    cfg.queries = queries;
    cfg.seed = seed;
    cfg.arrival = ArrivalKind::Bursty;
    cfg.admission = AdmissionConfig::standard();
    cfg
}

/// `sim-serve`: one `snp_load::run` replay of the seed's query stream.
pub struct SimServe {
    /// The replay config.
    pub cfg: LoadConfig,
    /// 64-bit word-ops of one query per template (device word-ops / 2).
    pub template_word_ops: Vec<(Template, f64)>,
    first_json: Option<String>,
    word_ops: f64,
    virt: Option<Virt>,
}

impl SimServe {
    /// Builds the replay config.
    pub fn setup(seed: u64, queries: usize) -> SimServe {
        SimServe {
            cfg: serve_config(seed, queries),
            template_word_ops: Vec::new(),
            first_json: None,
            word_ops: 0.0,
            virt: None,
        }
    }
}

/// 64-bit word-ops of one query of each template on the replay's
/// `WorkloadSet`, read from the engine's own run spans (device words are
/// 32-bit, two per 64-bit word). The top-k template searches the same
/// matrices as the full-readback one.
pub fn template_word_ops(cfg: &LoadConfig) -> Vec<(Template, f64)> {
    let set = snp_load::WorkloadSet::build(cfg.seed);
    let mut out = Vec::new();
    for t in [Template::Ld, Template::FastId, Template::Mixture] {
        let tracer = snp_trace::Tracer::enabled();
        let engine = GpuEngine::new(cfg.device.clone()).with_tracer(tracer.clone());
        snp_load::run_query(t, &engine, &set).expect("calibration query");
        let device_ops: u64 = tracer
            .snapshot()
            .expect("enabled tracer")
            .events
            .iter()
            .filter(|e| e.cat == "run")
            .flat_map(|e| e.args.iter())
            .filter_map(|(k, v)| match (k, v) {
                (&"word_ops", snp_trace::ArgValue::U64(n)) => Some(*n),
                _ => None,
            })
            .sum();
        out.push((t, device_ops as f64 / 2.0));
    }
    let fastid = out[1].1;
    out.push((Template::FastIdTopK, fastid));
    out
}

impl Workload for SimServe {
    type Out = LoadReport;

    fn op(&mut self, _i: usize) -> LoadReport {
        snp_load::run(&self.cfg)
    }

    fn call(&self) -> &'static str {
        "load.run"
    }

    fn prepare_oracle(&mut self) {
        self.template_word_ops = template_word_ops(&self.cfg);
    }

    fn check(&mut self, _i: usize, r: &LoadReport) -> Result<(), String> {
        if r.outcomes.fault + r.outcomes.error > 0 {
            return Err(format!(
                "{} fault and {} error outcomes",
                r.outcomes.fault, r.outcomes.error
            ));
        }
        let adm = r.admission.as_ref().ok_or("admission report missing")?;
        if adm.corruptions > 0 {
            return Err(format!("{} silent corruptions", adm.corruptions));
        }
        let json = r.to_json();
        match &self.first_json {
            Some(first) if *first != json => {
                return Err("report JSON differs from the first replay's".into())
            }
            Some(_) => {}
            None => {
                self.word_ops = r
                    .records
                    .iter()
                    .filter(|q| !q.outcome.is_shed() && q.tier != snp_load::Tier::CpuOnly)
                    .map(|q| {
                        self.template_word_ops
                            .iter()
                            .find(|(t, _)| *t == q.template)
                            .map_or(0.0, |&(_, w)| w)
                    })
                    .sum();
                let busy: u64 = r.records.iter().map(|q| q.service_ns).sum();
                self.virt = Some(Virt {
                    busy_ns: busy as f64,
                    p99_ns: r.p99_all_ns as f64,
                    goodput_qps: adm.goodput_qps,
                });
                self.first_json = Some(json);
            }
        }
        Ok(())
    }

    fn queries(&self, _i: usize) -> f64 {
        self.cfg.queries as f64
    }

    fn word_ops(&self, _i: usize) -> f64 {
        self.word_ops
    }

    fn virt(&self) -> Virt {
        self.virt.expect("virt read after the first checked replay")
    }
}
