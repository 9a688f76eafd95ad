//! Query templates and the shared synthetic data sets they run against.
//!
//! A template is one *kind* of query the generator can pose: an LD scan
//! over a panel, a FastID identity search (full-γ or streaming top-k
//! readback), or a mixture deconvolution. The backing matrices are built
//! once per run from the seed; individual queries then re-run the engine
//! against them, so per-query cost is the engine's modeled service time,
//! not data-generation time.

use snp_bitmat::{BitMatrix, CountMatrix};
use snp_core::{
    compare_op, word_op_kind, Algorithm, CpuModel, EngineError, GpuEngine, Match, MixtureStrategy,
    RecoverySummary, Timing,
};
use snp_popgen::forensic::{
    generate_database, generate_mixtures, generate_queries, DatabaseConfig,
};
use snp_popgen::population::{generate_panel, PanelConfig};
use snp_trace::Metrics;

use crate::admission::Tier;

/// One query kind. `FastIdTopK` shares the `fastid` algorithm slug with
/// `FastId` — it is the same search routed through the streaming top-k
/// readback path instead of the full-γ readback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Template {
    /// LD self-comparison over the panel (Eq. 1).
    Ld,
    /// FastID identity search, full-γ readback (Eq. 2).
    FastId,
    /// FastID identity search through the streaming top-k path.
    FastIdTopK,
    /// FastID mixture analysis (Eq. 3).
    Mixture,
}

impl Template {
    /// The algorithm slug latency is aggregated under (`ld`, `fastid`,
    /// `mixture` — matching `snpgpu`'s algorithm names).
    pub fn slug(self) -> &'static str {
        match self {
            Template::Ld => "ld",
            Template::FastId | Template::FastIdTopK => "fastid",
            Template::Mixture => "mixture",
        }
    }

    /// The engine algorithm this template exercises.
    pub fn algorithm(self) -> Algorithm {
        match self {
            Template::Ld => Algorithm::LinkageDisequilibrium,
            Template::FastId | Template::FastIdTopK => Algorithm::IdentitySearch,
            Template::Mixture => Algorithm::MixtureAnalysis,
        }
    }
}

/// Maps a `snpgpu` algorithm selection to the templates it enables.
pub fn templates_for(algorithms: &[Algorithm]) -> Vec<Template> {
    let mut out = Vec::new();
    for &alg in algorithms {
        match alg {
            Algorithm::LinkageDisequilibrium => out.push(Template::Ld),
            Algorithm::IdentitySearch => {
                out.push(Template::FastId);
                out.push(Template::FastIdTopK);
            }
            Algorithm::MixtureAnalysis => out.push(Template::Mixture),
        }
    }
    out
}

/// The matrices every query in a run draws on. Shapes are deliberately
/// small: queries execute in `ExecMode::Full` (so faults, checksums, and
/// recovery all really happen) and a load test runs hundreds of them.
#[derive(Debug, Clone)]
pub struct WorkloadSet {
    panel: BitMatrix<u64>,
    fastid_queries: BitMatrix<u64>,
    fastid_db: BitMatrix<u64>,
    mixture_refs: BitMatrix<u64>,
    mixture_matrix: BitMatrix<u64>,
    /// Candidates kept per query on the top-k path.
    pub topk: usize,
}

impl WorkloadSet {
    /// Builds the shared data sets from `seed`.
    pub fn build(seed: u64) -> WorkloadSet {
        let panel = generate_panel(
            &PanelConfig {
                snps: 48,
                samples: 256,
                ..Default::default()
            },
            seed,
        );
        let db = generate_database(
            &DatabaseConfig {
                profiles: 600,
                snps: 192,
                ..Default::default()
            },
            seed + 1,
        );
        let qs = generate_queries(&db, 4, 2, 0.01, seed + 2);
        let mix_db = generate_database(
            &DatabaseConfig {
                profiles: 300,
                snps: 192,
                ..Default::default()
            },
            seed + 3,
        );
        let (_mixtures, mixture_matrix) = generate_mixtures(&mix_db, 1, 2, seed + 4);
        WorkloadSet {
            panel: panel.matrix,
            fastid_queries: qs.queries,
            fastid_db: db.profiles,
            mixture_refs: mix_db.profiles,
            mixture_matrix,
            topk: 5,
        }
    }
}

/// What one serviced query cost and what recovery did for it.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Modeled post-init service time (virtual ns) of the engine run.
    pub service_ns: u64,
    /// Kernel launches.
    pub passes: usize,
    /// Recovery summary when the query ran the recovering path.
    pub recovery: Option<RecoverySummary>,
    /// Order-independent FNV digest of the query's result (γ counts or
    /// top-k match lists). Two runs of the same `(template, tier)` against
    /// the same [`WorkloadSet`] must agree — a mismatch against the clean
    /// calibration run is a silent corruption.
    pub digest: u64,
    /// The engine run's metrics (empty on the CPU-only tier, which runs no
    /// engine).
    pub metrics: Metrics,
}

fn service(
    timing: &Timing,
    passes: usize,
    recovery: Option<RecoverySummary>,
    digest: u64,
    metrics: Metrics,
) -> ServiceReport {
    // A serving deployment opens its device once, so one-time runtime
    // initialization is not charged to individual queries: service time is
    // the post-init window (packing, transfers, kernels, recovery).
    ServiceReport {
        service_ns: timing.busy_ns(),
        passes,
        recovery,
        digest,
        metrics,
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

fn digest_gamma(gamma: &Option<CountMatrix>) -> u64 {
    let Some(g) = gamma else { return 0 };
    let mut h = fnv(FNV_OFFSET, g.rows() as u64);
    h = fnv(h, g.cols() as u64);
    for r in 0..g.rows() {
        for &v in g.row(r) {
            h = fnv(h, v as u64);
        }
    }
    h
}

fn digest_matches(matches: &Option<Vec<Vec<Match>>>) -> u64 {
    let Some(rows) = matches else { return 0 };
    let mut h = fnv(FNV_OFFSET, rows.len() as u64);
    for row in rows {
        h = fnv(h, row.len() as u64);
        for m in row {
            h = fnv(h, m.profile as u64);
            h = fnv(h, m.differences as u64);
        }
    }
    h
}

/// Candidates kept per query when the brownout controller has stepped the
/// service down to [`Tier::ReducedTopK`].
pub const REDUCED_TOPK: usize = 2;

/// Runs one query of this template on `engine` against `set`.
pub fn run_query(
    template: Template,
    engine: &GpuEngine,
    set: &WorkloadSet,
) -> Result<ServiceReport, EngineError> {
    run_query_tier(template, engine, set, Tier::Full)
}

/// Runs one query at a brownout service tier.
///
/// * [`Tier::Full`] — the template's native path.
/// * [`Tier::ReducedTopK`] — both FastID readbacks are routed through the
///   streaming top-k path with `k =` [`REDUCED_TOPK`] (cheaper readback,
///   shorter candidate list); LD and mixture are unchanged.
/// * [`Tier::CpuOnly`] — the engine is **not touched**: service time is the
///   modeled CPU baseline of Fig. 6 for this template's shape, which keeps
///   the tier available while the device is faulting.
pub fn run_query_tier(
    template: Template,
    engine: &GpuEngine,
    set: &WorkloadSet,
    tier: Tier,
) -> Result<ServiceReport, EngineError> {
    if tier == Tier::CpuOnly {
        return Ok(ServiceReport {
            service_ns: cpu_service_ns(template, set),
            passes: 1,
            recovery: None,
            digest: 0,
            metrics: Metrics::new(),
        });
    }
    match template {
        Template::Ld => {
            let r = engine.ld_self(&set.panel)?;
            Ok(service(
                &r.timing,
                r.passes,
                r.recovery,
                digest_gamma(&r.gamma),
                r.metrics,
            ))
        }
        Template::FastId if tier == Tier::ReducedTopK => {
            let r =
                engine.identity_search_topk(&set.fastid_queries, &set.fastid_db, REDUCED_TOPK)?;
            Ok(service(
                &r.timing,
                r.passes,
                r.recovery,
                digest_matches(&r.matches),
                r.metrics,
            ))
        }
        Template::FastId => {
            let r = engine.identity_search(&set.fastid_queries, &set.fastid_db)?;
            Ok(service(
                &r.timing,
                r.passes,
                r.recovery,
                digest_gamma(&r.gamma),
                r.metrics,
            ))
        }
        Template::FastIdTopK => {
            let k = if tier == Tier::ReducedTopK {
                REDUCED_TOPK
            } else {
                set.topk
            };
            let r = engine.identity_search_topk(&set.fastid_queries, &set.fastid_db, k)?;
            Ok(service(
                &r.timing,
                r.passes,
                r.recovery,
                digest_matches(&r.matches),
                r.metrics,
            ))
        }
        Template::Mixture => {
            let r = engine.mixture_analysis(&set.mixture_refs, &set.mixture_matrix)?;
            Ok(service(
                &r.timing,
                r.passes,
                r.recovery,
                digest_gamma(&r.gamma),
                r.metrics,
            ))
        }
    }
}

/// Modeled service time of this template on the CPU baseline (the Xeon
/// E5-2620 v2 of Fig. 6), used by the [`Tier::CpuOnly`] brownout tier.
/// Deterministic and fault-immune: the model GPU is not involved at all.
pub fn cpu_service_ns(template: Template, set: &WorkloadSet) -> u64 {
    let model = CpuModel::ivy_bridge_workstation();
    let kind = word_op_kind(compare_op(template.algorithm(), MixtureStrategy::Direct));
    let ns = match template {
        Template::Ld => {
            model.time_ns_for_bits(kind, set.panel.rows(), set.panel.rows(), set.panel.cols())
        }
        Template::FastId | Template::FastIdTopK => model.time_ns_for_bits(
            kind,
            set.fastid_queries.rows(),
            set.fastid_db.rows(),
            set.fastid_db.cols(),
        ),
        Template::Mixture => model.time_ns_for_bits(
            kind,
            set.mixture_refs.rows(),
            set.mixture_matrix.rows().max(1),
            set.mixture_refs.cols(),
        ),
    };
    (ns.max(1.0)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use snp_core::{EngineOptions, ExecMode, MixtureStrategy};
    use snp_gpu_model::devices;

    #[test]
    fn every_template_services_in_full_mode() {
        let dev = devices::titan_v();
        let engine = GpuEngine::new(dev).with_options(EngineOptions {
            mode: ExecMode::Full,
            double_buffer: true,
            mixture: MixtureStrategy::Direct,
            ..Default::default()
        });
        let set = WorkloadSet::build(42);
        for t in [
            Template::Ld,
            Template::FastId,
            Template::FastIdTopK,
            Template::Mixture,
        ] {
            let r = run_query(t, &engine, &set).expect("clean run");
            assert!(r.service_ns > 0, "{:?} reported zero service time", t);
            assert!(r.passes >= 1);
            assert!(r.recovery.is_none(), "no fault plan → fast path");
        }
    }

    #[test]
    fn service_time_is_deterministic() {
        let set = WorkloadSet::build(42);
        let dev = devices::titan_v();
        let engine = GpuEngine::new(dev).with_options(EngineOptions {
            mode: ExecMode::Full,
            ..Default::default()
        });
        let a = run_query(Template::FastIdTopK, &engine, &set).unwrap();
        let b = run_query(Template::FastIdTopK, &engine, &set).unwrap();
        assert_eq!(a.service_ns, b.service_ns);
    }

    #[test]
    fn selection_expands_fastid_into_both_readback_paths() {
        let ts = templates_for(&[Algorithm::IdentitySearch]);
        assert_eq!(ts, vec![Template::FastId, Template::FastIdTopK]);
        assert!(ts.iter().all(|t| t.slug() == "fastid"));
    }
}
