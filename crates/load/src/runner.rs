//! The replay engine, in four stages with typed hand-offs:
//!
//! 1. **plan** draws the seeded arrivals (times, template picks, tenants);
//! 2. one admission **gate** admits each arrival to the [`Scheduler`] or
//!    sheds it, typed, and owns every piece of state its decisions read;
//! 3. **execute** serves one admitted query on its own engine;
//! 4. **report** computes every metric, SLO verdict, count and the stream
//!    track from the per-query records.
//!
//! Dispatch runs through the [`Scheduler`] (fair queueing across tenants,
//! EDF within a tenant) on the simulator's virtual clock: the server picks
//! its next query whenever it goes free, among everything that has arrived
//! by then. With admission **disabled** (the default) the scheduler runs in
//! FIFO policy mode and reproduces the original single-FIFO server exactly:
//! query *i* starts at `max(arrival_i, done_{i-1})`, its service time is
//! the engine's modeled end-to-end run time, and its end-to-end latency is
//! `done_i − arrival_i`.
//!
//! With admission **enabled** every arrival passes the typed gates in
//! [`crate::admission`] (token-bucket quota → queue cap → provable
//! deadline feasibility), a hysteretic [`BrownoutController`] steps the
//! service tier under pressure, and per-tenant goodput is accounted so
//! fairness is measurable. Shed queries never touch the engine and are
//! never silent: each carries its [`ShedReason`] in records, metrics, and
//! the report.
//!
//! Every query runs with a fresh [`Tracer`] carrying its [`QueryCtx`], so
//! each engine/device/recovery span in the merged timeline names the query
//! that caused it. The run keeps each served query's trace with its start
//! instant on the stream clock, and nothing else: the first typed device
//! fault, device loss, shed storm, or — at the end of the run — SLO breach
//! records a [`Postmortem`] trigger, and the report builds the merged
//! Chrome timeline ([`LoadReport::timeline`]) and the post-mortem dump
//! ([`LoadReport::postmortem_json`]) from the kept traces when a caller
//! asks.

use rand::{rngs::StdRng, RngExt, SeedableRng};
use snp_core::{
    CostScale, EngineError, EngineOptions, ExecMode, FaultPlan, FaultProfile, GpuEngine,
    MixtureStrategy,
};
use snp_gpu_model::DeviceSpec;
use snp_trace::{merge_into, postmortem, Metrics, QueryCtx, TimeDomain, Trace, Tracer};

use crate::admission::{
    AdmissionConfig, BrownoutController, CostModel, ShedReason, Tier, TierTransition, TokenBucket,
    STORM_RUN, TENANT_BURST, TENANT_RATE_QPS,
};
use crate::anatomy::{decompose_query, AnatomyReport, QueryAnatomy};
use crate::arrival::{arrival_times, ArrivalKind};
use crate::scheduler::{QueuedQuery, Scheduler};
use crate::slo::{evaluate, percentile, SloOutcome, SloPolicy};
use crate::workload::{run_query_tier, ServiceReport, Template, WorkloadSet};

/// Tenant labels, assigned to arrivals round-robin. A label is a tenant:
/// its token bucket, its latency histogram and its report row go by it.
pub const TENANTS: [&str; 2] = ["casework", "research"];

/// Each tenant's end-to-end latency histogram, index-aligned with
/// [`TENANTS`] (the Prometheus renderer turns the `|tenant=` suffix into a
/// real `tenant` label).
const TENANT_LATENCY_METRICS: [&str; 2] = [
    "load.tenant.latency_ns|tenant=casework",
    "load.tenant.latency_ns|tenant=research",
];

/// Deterministic fault injection for a load run.
#[derive(Debug, Clone)]
pub struct FaultSpec {
    /// Chaos profile name (`transient`, `loss`, …) — echoed into reports.
    pub profile_name: String,
    /// The profile itself.
    pub profile: FaultProfile,
    /// Arm the plan only for this query index; `None` arms every query
    /// (each with a decorrelated per-query seed).
    pub at_query: Option<usize>,
}

/// Everything that determines a load run. Two configs with equal fields
/// produce byte-identical reports.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Device to replay against.
    pub device: DeviceSpec,
    /// Templates queries are drawn from (seeded, uniform).
    pub templates: Vec<Template>,
    /// Offered load in queries per virtual second.
    pub rate_qps: f64,
    /// Stream length.
    pub queries: usize,
    /// Master seed: arrivals, template picks, workload data, fault draws.
    pub seed: u64,
    /// Arrival process.
    pub arrival: ArrivalKind,
    /// Optional fault injection.
    pub fault: Option<FaultSpec>,
    /// Latency objectives.
    pub slo: SloPolicy,
    /// Admission control (disabled by default — the legacy FIFO
    /// semantics).
    pub admission: AdmissionConfig,
    /// Spans (and counter samples) in the post-mortem window.
    pub flight_capacity: usize,
    /// Keep each served query's trace, from which the report builds the
    /// merged timeline and the post-mortem dump on demand. Sweeps turn it
    /// off to keep points cheap; every trigger, an SLO breach included,
    /// records its reason either way.
    pub record_timeline: bool,
    /// Decompose every accepted query's latency into named segments and
    /// aggregate the percentile-band [`AnatomyReport`]. Independent of
    /// `record_timeline`: anatomy keeps each query's trace only long enough
    /// to attribute it.
    pub anatomy: bool,
    /// Virtual-cost scale armed on every engine run **and** on the cost
    /// model's calibration runs, so feasibility estimates track the scaled
    /// world. Identity by default — `snpgpu whatif` sets this for causal
    /// replay.
    pub cost_scale: CostScale,
    /// Scheduler policy override for what-if replay: `Some(true)` forces
    /// strict arrival-order FIFO, `Some(false)` forces fair queueing + EDF. `None`
    /// keeps the default (FIFO exactly when admission is disabled).
    pub scheduler_fifo: Option<bool>,
}

impl LoadConfig {
    /// A config with conventional defaults for `device` and `templates`.
    pub fn new(device: DeviceSpec, templates: Vec<Template>) -> LoadConfig {
        LoadConfig {
            device,
            templates,
            rate_qps: 2_000.0,
            queries: 64,
            seed: 42,
            arrival: ArrivalKind::Poisson,
            fault: None,
            slo: SloPolicy::default(),
            admission: AdmissionConfig::disabled(),
            flight_capacity: 256,
            record_timeline: true,
            anatomy: false,
            cost_scale: CostScale::default(),
            scheduler_fifo: None,
        }
    }
}

/// How one query ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Fault-free fast path, or recovering path with nothing to recover.
    Clean,
    /// Faults occurred and were fully recovered (retry / re-read / absorb).
    Recovered,
    /// Completed, but degraded (device loss mid-run, CPU fallback, …).
    Degraded,
    /// A typed device fault surfaced (fault kind name).
    Fault(String),
    /// Any other engine error.
    Error(String),
    /// Refused at admission, typed; the query never ran.
    Shed(ShedReason),
}

impl Outcome {
    /// Stable lowercase class label (JSON and span args).
    pub fn label(&self) -> &'static str {
        match self {
            Outcome::Clean => "clean",
            Outcome::Recovered => "recovered",
            Outcome::Degraded => "degraded",
            Outcome::Fault(_) => "fault",
            Outcome::Error(_) => "error",
            Outcome::Shed(_) => "shed",
        }
    }

    /// Whether this outcome spends error budget. Shedding does not: it is
    /// an intentional, typed refusal accounted by the shed budget instead.
    pub fn is_failure(&self) -> bool {
        matches!(self, Outcome::Fault(_) | Outcome::Error(_))
    }

    /// Whether the query was refused at admission.
    pub fn is_shed(&self) -> bool {
        matches!(self, Outcome::Shed(_))
    }
}

/// One replayed query, fully resolved.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// Stream-wide query id (also the trace `query_id` arg).
    pub id: u64,
    /// Tenant label.
    pub tenant: &'static str,
    /// Template this query ran.
    pub template: Template,
    /// Arrival instant (virtual ns since stream start).
    pub arrival_ns: u64,
    /// Service start (after queueing; `= arrival_ns` for shed queries).
    pub start_ns: u64,
    /// Modeled engine time (0 for failed or shed queries).
    pub service_ns: u64,
    /// `start − arrival`.
    pub queue_wait_ns: u64,
    /// `done − arrival` (0 for shed queries).
    pub latency_ns: u64,
    /// Recovery retries this query needed.
    pub retries: u64,
    /// Service tier the query ran at ([`Tier::Full`] when admission is
    /// off; the tier in force at admission for shed queries).
    pub tier: Tier,
    /// Absolute deadline, when admission derived one.
    pub deadline_ns: Option<u64>,
    /// How it ended.
    pub outcome: Outcome,
}

/// Counts of query outcomes over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Fault-free queries.
    pub clean: usize,
    /// Queries that recovered from injected faults.
    pub recovered: usize,
    /// Queries that completed degraded.
    pub degraded: usize,
    /// Queries ending in a typed device fault.
    pub fault: usize,
    /// Queries ending in another engine error.
    pub error: usize,
    /// Queries shed at admission.
    pub shed: usize,
}

/// A run's first post-mortem trigger; [`LoadReport::postmortem_json`]
/// renders its dump.
#[derive(Debug, Clone)]
pub struct Postmortem {
    /// Why it fired ("typed fault …", "shed storm …", "slo breach …").
    pub reason: String,
    /// The query to blame, when there is one.
    pub query: Option<QueryCtx>,
    /// Query traces kept when it fired: the dump's window ends with them.
    pub kept_traces: usize,
}

/// One tenant's admission and goodput accounting over a run.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant label.
    pub name: &'static str,
    /// Queries this tenant offered.
    pub offered: usize,
    /// Queries admitted.
    pub admitted: usize,
    /// Queries shed at admission.
    pub shed: usize,
    /// Queries that completed (any completion outcome).
    pub completed: usize,
    /// Queries that completed **within their deadline** — the goodput.
    pub goodput: usize,
}

/// What the admission layer did over a run (present when enabled).
#[derive(Debug, Clone)]
pub struct AdmissionReport {
    /// Queries offered to admission.
    pub offered: usize,
    /// Queries admitted (and therefore dispatched — an admitted query is
    /// never shed later).
    pub admitted: usize,
    /// Queries shed, by gate.
    pub shed_quota: usize,
    /// Sheds at the queue-depth cap.
    pub shed_queue_full: usize,
    /// Sheds proven unable to meet their deadline.
    pub shed_deadline: usize,
    /// Total sheds / offered.
    pub shed_fraction: f64,
    /// Whether the shed fraction exceeded the configured shed budget
    /// (drives exit code 7, `SHED_BUDGET_EXCEEDED`).
    pub shed_budget_exceeded: bool,
    /// Completions within deadline across tenants.
    pub goodput: usize,
    /// Goodput over the makespan (queries per virtual second).
    pub goodput_qps: f64,
    /// max/min per-tenant goodput among tenants that offered load
    /// (1.0 = perfectly fair; `inf` when a tenant starved).
    pub tenant_goodput_ratio: f64,
    /// Engine-run completions whose result digest differed from the clean
    /// calibration digest — silent corruptions (must be 0).
    pub corruptions: usize,
    /// Tier in force when the run ended.
    pub final_tier: Tier,
    /// Every brownout step, in order.
    pub transitions: Vec<TierTransition>,
    /// Per-tenant accounting.
    pub tenants: Vec<TenantReport>,
}

/// Everything a load run produced.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Device name.
    pub device: String,
    /// Arrival process used.
    pub arrival: ArrivalKind,
    /// Offered rate (queries per virtual second).
    pub rate_qps: f64,
    /// Master seed.
    pub seed: u64,
    /// Fault profile name, if injection was armed.
    pub fault_profile: Option<String>,
    /// Per-query records, in arrival order.
    pub records: Vec<QueryRecord>,
    /// Outcome class counts.
    pub outcomes: OutcomeCounts,
    /// Per-algorithm SLO verdicts over **accepted** queries (order: ld,
    /// fastid, mixture).
    pub slo: Vec<SloOutcome>,
    /// Whether any algorithm breached its SLO.
    pub breached: bool,
    /// Stream makespan: the last completion instant (virtual ns).
    pub duration_ns: u64,
    /// Overall p50 across accepted queries.
    pub p50_all_ns: u64,
    /// Overall p99 across accepted queries.
    pub p99_all_ns: u64,
    /// Completed-query throughput over the makespan.
    pub achieved_qps: f64,
    /// Admission accounting (present when admission was enabled).
    pub admission: Option<AdmissionReport>,
    /// Percentile-band latency anatomy over accepted queries (present when
    /// [`LoadConfig::anatomy`] was set).
    pub anatomy: Option<AnatomyReport>,
    /// The first post-mortem trigger: a typed fault, a device loss, a shed
    /// storm or — at end of run — an SLO breach.
    pub postmortem: Option<Postmortem>,
    /// This run's metrics (DESIGN.md §8.2): the `load.*` families, read
    /// off the records, and the merged engine metrics of every query whose
    /// engine run returned a report (`snpgpu metrics` renders them).
    pub metrics: Metrics,
    /// The `loadgen · queries` track (when recorded).
    stream: Option<Trace>,
    /// Each served query's trace and its start on the stream clock, in
    /// resolution order (when recorded).
    traces: Vec<(Trace, u64)>,
    /// [`LoadConfig::flight_capacity`].
    flight_capacity: usize,
}

impl LoadReport {
    /// The merged query-attributed Chrome timeline: the stream track, then
    /// every kept query trace on the stream clock (when recorded).
    pub fn timeline(&self) -> Option<Trace> {
        let mut timeline = self.stream.clone()?;
        for (trace, start_ns) in &self.traces {
            merge_into(&mut timeline, trace, *start_ns);
        }
        Some(timeline)
    }

    /// The post-mortem dump of the first trigger, when one fired: the
    /// flight window over the query traces kept until then, as a valid
    /// Chrome trace with a `flightRecorder` header.
    pub fn postmortem_json(&self) -> Option<String> {
        let pm = self.postmortem.as_ref()?;
        let mut timeline = Trace::default();
        for (trace, start_ns) in &self.traces[..pm.kept_traces] {
            merge_into(&mut timeline, trace, *start_ns);
        }
        let query = pm.query.as_ref();
        Some(postmortem(
            timeline,
            self.flight_capacity,
            &pm.reason,
            query,
        ))
    }

    /// Kept query spans beyond the flight window: the spans a post-mortem
    /// at the end of the run drops.
    pub fn flight_dropped_spans(&self) -> usize {
        let spans: usize = self.traces.iter().map(|(t, _)| t.events.len()).sum();
        spans.saturating_sub(self.flight_capacity.max(1))
    }

    /// Goodput: deadline-met completions per virtual second under
    /// admission, completed throughput otherwise.
    pub fn goodput_qps(&self) -> f64 {
        self.admission
            .as_ref()
            .map_or(self.achieved_qps, |a| a.goodput_qps)
    }
}

/// Decorrelates per-query fault streams from the master seed.
fn query_fault_seed(seed: u64, qid: u64) -> u64 {
    seed.wrapping_add((qid + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One pre-resolved arrival, the plan stage's output.
struct Planned {
    qid: u64,
    arrival_ns: u64,
    template: Template,
    tenant: usize,
}

/// Stage 1: the seeded arrivals in arrival order. Template picks draw in
/// arrival order, so the stream is identical whatever the dispatch policy
/// does later; tenants go round-robin.
fn plan(cfg: &LoadConfig) -> Vec<Planned> {
    let arrivals = arrival_times(cfg.arrival, cfg.rate_qps, cfg.queries, cfg.seed);
    let mut pick = StdRng::seed_from_u64(cfg.seed ^ 0xA5A5_5A5A_D00D_F00D);
    arrivals
        .into_iter()
        .enumerate()
        .map(|(qid, arrival_ns)| Planned {
            qid: qid as u64,
            arrival_ns,
            template: cfg.templates[pick.random_range(0..cfg.templates.len())],
            tenant: qid % TENANTS.len(),
        })
        .collect()
}

/// The gate's verdict on one arrival.
enum Admission {
    /// Admitted: the scheduler takes it.
    Admitted(QueuedQuery),
    /// Shed at the door: the query's final record.
    Shed(QueryRecord),
}

/// Stage 2, the one admission gate: the quota check, the queue cap, the
/// feasibility bound, the brownout tier, the shed-storm count and the
/// corruption oracle. With admission off it admits every arrival at
/// deadline `u64::MAX` with estimate 0, and the brownout controller never
/// observes, so the tier stays [`Tier::Full`].
struct Gate<'a> {
    cfg: &'a LoadConfig,
    buckets: [TokenBucket; TENANTS.len()],
    /// Calibrated exactly when admission is on.
    cost: Option<CostModel>,
    brownout: BrownoutController,
    consecutive_sheds: usize,
    /// Burn inputs: completions, and those that failed.
    completed: usize,
    failed: usize,
    corruptions: usize,
}

impl<'a> Gate<'a> {
    fn new(cfg: &'a LoadConfig, set: &WorkloadSet) -> Gate<'a> {
        Gate {
            cfg,
            buckets: TENANTS.map(|_| TokenBucket::new(TENANT_RATE_QPS, TENANT_BURST)),
            cost: cfg
                .admission
                .enabled
                .then(|| CostModel::calibrate(&cfg.device, set, cfg.cost_scale)),
            brownout: BrownoutController::new(),
            consecutive_sheds: 0,
            completed: 0,
            failed: 0,
            corruptions: 0,
        }
    }

    /// The service tier in force.
    fn tier(&self) -> Tier {
        self.brownout.tier()
    }

    /// Admits `p` or sheds it at its arrival instant, given the queue and
    /// the instant the server goes free.
    fn admit(&mut self, p: &Planned, queue: &Scheduler, server_free: u64) -> Admission {
        let mut q = QueuedQuery {
            seq: p.qid,
            tenant: p.tenant,
            template: p.template,
            arrival_ns: p.arrival_ns,
            deadline_ns: u64::MAX,
            est_ns: 0,
        };
        let Some(cost) = &self.cost else {
            return Admission::Admitted(q);
        };
        let admission = &self.cfg.admission;
        let tier = self.tier();
        q.est_ns = cost.estimate_ns(p.template, tier);
        let p99_objective = self.cfg.slo.for_algorithm(p.template.slug()).p99_ns;
        q.deadline_ns = p
            .arrival_ns
            .saturating_add((admission.deadline_slack * p99_objective as f64) as u64);
        let verdict = if !self.buckets[p.tenant].try_take(p.arrival_ns) {
            Some(ShedReason::QuotaExceeded)
        } else if queue.len() >= admission.queue_cap {
            Some(ShedReason::QueueFull)
        } else {
            // Provable lower bound on this query's completion: the server
            // is busy until `server_free`, every queued same-tenant query
            // with an earlier EDF key precedes it, and the calibrated
            // estimate is a clean-run lower bound.
            let backlog = queue.backlog_before(p.tenant, q.deadline_ns, p.qid);
            let bound = p
                .arrival_ns
                .max(server_free)
                .saturating_add(backlog)
                .saturating_add(q.est_ns);
            (bound > q.deadline_ns).then_some(ShedReason::DeadlineUnmeetable)
        };
        let Some(reason) = verdict else {
            self.consecutive_sheds = 0;
            return Admission::Admitted(q);
        };
        self.consecutive_sheds += 1;
        Admission::Shed(QueryRecord {
            id: p.qid,
            tenant: TENANTS[p.tenant],
            template: p.template,
            arrival_ns: p.arrival_ns,
            start_ns: p.arrival_ns,
            service_ns: 0,
            queue_wait_ns: 0,
            latency_ns: 0,
            retries: 0,
            tier,
            deadline_ns: Some(q.deadline_ns),
            outcome: Outcome::Shed(reason),
        })
    }

    /// The run of consecutive sheds, once it is long enough to be a storm.
    fn storm(&self) -> Option<usize> {
        (self.consecutive_sheds >= STORM_RUN).then_some(self.consecutive_sheds)
    }

    /// Accounts one completion: the corruption oracle, then one brownout
    /// observation at its done instant against the queue it left behind.
    fn complete(&mut self, served: &Served, queue_depth: usize) {
        let Some(cost) = &self.cost else { return };
        let r = &served.record;
        // Engine-run completions must reproduce the clean calibration
        // digest — recovery guarantees results, so any drift here is a
        // silent corruption.
        let expected = cost.expected_digest(r.template, r.tier);
        if r.tier != Tier::CpuOnly && served.digest.is_some_and(|d| d != expected) {
            self.corruptions += 1;
        }
        self.completed += 1;
        self.failed += usize::from(r.outcome.is_failure());
        let burn = self.brownout.burn(self.failed, self.completed);
        self.brownout
            .observe(r.start_ns + r.service_ns, queue_depth, burn);
    }
}

/// One served query, the execute stage's output.
struct Served {
    record: QueryRecord,
    /// The result digest, when the engine returned a result.
    digest: Option<u64>,
    /// Whether the device was lost mid-run (the query may still complete).
    device_lost: bool,
    /// The engine run's metrics, when it returned a report.
    metrics: Metrics,
    /// The query's own trace, when traced.
    trace: Option<Trace>,
}

/// Stage 3: serves `q` at `tier` on its own engine, starting when the
/// server goes free at `free_ns` or when `q` arrived, whichever is later.
fn execute(
    cfg: &LoadConfig,
    set: &WorkloadSet,
    q: &QueuedQuery,
    tier: Tier,
    free_ns: u64,
) -> Served {
    let tracer = if cfg.record_timeline || cfg.anatomy {
        Tracer::enabled().with_query_ctx(QueryCtx::new(q.seq, TENANTS[q.tenant]))
    } else {
        Tracer::disabled()
    };
    let mut engine = GpuEngine::new(cfg.device.clone())
        .with_options(EngineOptions {
            mode: ExecMode::Full,
            mixture: MixtureStrategy::Direct,
            cost_scale: cfg.cost_scale,
            ..Default::default()
        })
        .with_tracer(tracer.clone());
    let armed = cfg
        .fault
        .as_ref()
        .filter(|spec| spec.at_query.is_none_or(|at| at as u64 == q.seq));
    if let Some(spec) = armed {
        engine = engine.with_fault_plan(FaultPlan::new(
            query_fault_seed(cfg.seed, q.seq),
            spec.profile,
        ));
    }
    let result = run_query_tier(q.template, &engine, set, tier);
    let (service_ns, retries, outcome) = outcome_of(&result);
    let start_ns = q.arrival_ns.max(free_ns);
    let served = result.ok();
    Served {
        record: QueryRecord {
            id: q.seq,
            tenant: TENANTS[q.tenant],
            template: q.template,
            arrival_ns: q.arrival_ns,
            start_ns,
            service_ns,
            queue_wait_ns: start_ns - q.arrival_ns,
            latency_ns: start_ns + service_ns - q.arrival_ns,
            retries,
            tier,
            deadline_ns: cfg.admission.enabled.then_some(q.deadline_ns),
            outcome,
        },
        digest: served.as_ref().map(|sr| sr.digest),
        device_lost: served
            .as_ref()
            .and_then(|sr| sr.recovery.as_ref())
            .is_some_and(|r| r.device_lost),
        metrics: served.map(|sr| sr.metrics).unwrap_or_default(),
        trace: tracer.snapshot(),
    }
}

/// An engine run's service time, recovery retries and [`Outcome`].
fn outcome_of(result: &Result<ServiceReport, EngineError>) -> (u64, u64, Outcome) {
    match result {
        Ok(sr) => {
            let outcome = match &sr.recovery {
                Some(r) if r.degraded() => Outcome::Degraded,
                Some(r) if r.recovered() => Outcome::Recovered,
                _ => Outcome::Clean,
            };
            let retries = sr.recovery.as_ref().map_or(0, |r| r.retries);
            (sr.service_ns, retries, outcome)
        }
        Err(e) => match e.device_fault() {
            Some(f) => (0, 0, Outcome::Fault(f.kind.name().to_string())),
            None => (0, 0, Outcome::Error(e.to_string())),
        },
    }
}

/// What the run keeps besides its records: the latency anatomies, the
/// per-query traces on the stream clock, the first post-mortem trigger and
/// the served queries' engine metrics.
struct Observer {
    record_timeline: bool,
    anatomy: bool,
    traces: Vec<(Trace, u64)>,
    anatomies: Vec<QueryAnatomy>,
    postmortem: Option<Postmortem>,
    metrics: Metrics,
}

impl Observer {
    fn new(cfg: &LoadConfig) -> Observer {
        Observer {
            record_timeline: cfg.record_timeline,
            anatomy: cfg.anatomy,
            traces: Vec::new(),
            anatomies: Vec::new(),
            postmortem: None,
            metrics: Metrics::new(),
        }
    }

    /// Records the trigger `reason` over the traces kept so far, unless a
    /// post-mortem already fired: a run keeps only its first.
    fn trigger(&mut self, reason: String, query: Option<QueryCtx>) {
        let kept_traces = self.traces.len();
        self.postmortem.get_or_insert(Postmortem {
            reason,
            query,
            kept_traces,
        });
    }

    /// Observes a shed; the gate's `storm` says whether it ends a storm.
    fn shed(&mut self, r: &QueryRecord, storm: Option<usize>) {
        if let (Some(run), Outcome::Shed(reason)) = (storm, &r.outcome) {
            let reason = format!(
                "shed storm: {run} consecutive sheds through query {} ({})",
                r.id,
                reason.label()
            );
            self.trigger(reason, Some(QueryCtx::new(r.id, r.tenant)));
        }
    }

    /// Observes a served query: its anatomy, its trace on the stream clock,
    /// its engine metrics, and a post-mortem trigger when it surfaced a
    /// typed fault or lost the device.
    fn served(&mut self, served: Served) -> QueryRecord {
        let r = served.record;
        self.metrics.merge(&served.metrics);
        if self.anatomy {
            let trace = served.trace.as_ref();
            let anatomy = decompose_query(r.id, r.queue_wait_ns, r.service_ns, r.tier, trace);
            self.anatomies.push(anatomy);
        }
        if let Some(trace) = served.trace.filter(|_| self.record_timeline) {
            self.traces.push((trace, r.start_ns));
        }
        let reason = match &r.outcome {
            Outcome::Fault(kind) => Some(format!("typed fault on query {}: {kind}", r.id)),
            _ if served.device_lost => Some(format!(
                "device lost on query {} (completed {})",
                r.id,
                r.outcome.label()
            )),
            _ => None,
        };
        if let Some(reason) = reason {
            self.trigger(reason, Some(QueryCtx::new(r.id, r.tenant)));
        }
        r
    }
}

/// Replays one seeded query stream: plan, then admit / dispatch / execute
/// on the virtual clock until every arrival has resolved, then report.
/// Deterministic: equal configs produce byte-identical reports (all clocks
/// are virtual).
pub fn run(cfg: &LoadConfig) -> LoadReport {
    assert!(!cfg.templates.is_empty(), "no query templates selected");
    let planned = plan(cfg);
    let set = WorkloadSet::build(cfg.seed);
    let mut gate = Gate::new(cfg, &set);
    let fifo = cfg.scheduler_fifo.unwrap_or(!cfg.admission.enabled);
    let mut queue = Scheduler::new(TENANTS.len(), fifo);
    let mut observer = Observer::new(cfg);
    // The run's one account, in the order queries resolve: a shed at its
    // arrival, a dispatched query when it completes.
    let mut records = Vec::with_capacity(planned.len());
    let mut arrivals = planned.iter().peekable();
    let mut server_free = 0u64;
    loop {
        // The instant of the next dispatch decision: when the server goes
        // free, or — with an empty queue — when the next query arrives.
        let t = match arrivals.peek() {
            _ if !queue.is_empty() => server_free,
            Some(p) => server_free.max(p.arrival_ns),
            None => break,
        };
        // Admission: every arrival at or before `t` gets its verdict at
        // its own arrival instant, in arrival order.
        while let Some(p) = arrivals.next_if(|p| p.arrival_ns <= t) {
            match gate.admit(p, &queue, server_free) {
                Admission::Admitted(q) => queue.push(q),
                Admission::Shed(record) => {
                    observer.shed(&record, gate.storm());
                    records.push(record);
                }
            }
        }
        // Dispatch: the scheduler picks; the engine serves.
        let Some(q) = queue.pop() else { continue };
        let served = execute(cfg, &set, &q, gate.tier(), t);
        server_free = served.record.start_ns + served.record.service_ns;
        gate.complete(&served, queue.len());
        records.push(observer.served(served));
    }
    assert_eq!(records.len(), planned.len(), "every planned query resolves");
    report(cfg, records, &gate, observer)
}

/// Stage 4: the report, computed from the records in resolution order and
/// from what the gate and the observer kept.
fn report(
    cfg: &LoadConfig,
    mut records: Vec<QueryRecord>,
    gate: &Gate,
    mut observer: Observer,
) -> LoadReport {
    for r in &records {
        publish(&mut observer.metrics, r);
    }
    let stream = cfg.record_timeline.then(|| stream_track(&records));
    records.sort_by_key(|r| r.id);

    // Judge each algorithm against its objectives, over accepted queries.
    let slo: Vec<SloOutcome> = ["ld", "fastid", "mixture"]
        .into_iter()
        .filter_map(|slug| {
            let of_alg: Vec<&QueryRecord> = records
                .iter()
                .filter(|r| r.template.slug() == slug && !r.outcome.is_shed())
                .collect();
            if of_alg.is_empty() {
                return None;
            }
            let lat: Vec<u64> = of_alg.iter().map(|r| r.latency_ns).collect();
            let qw: Vec<u64> = of_alg.iter().map(|r| r.queue_wait_ns).collect();
            let failed = of_alg.iter().filter(|r| r.outcome.is_failure()).count();
            Some(evaluate(
                slug,
                &lat,
                &qw,
                failed,
                cfg.slo.for_algorithm(slug),
            ))
        })
        .collect();
    let breached = slo.iter().any(|o| o.breached);
    if breached {
        let reasons: Vec<String> = slo
            .iter()
            .filter(|o| o.breached)
            .map(|o| format!("{}: {}", o.algorithm, o.reasons.join("; ")))
            .collect();
        observer.trigger(format!("slo breach: {}", reasons.join(" | ")), None);
    }

    let accepted: Vec<&QueryRecord> = records.iter().filter(|r| !r.outcome.is_shed()).collect();
    let mut all_lat: Vec<u64> = accepted.iter().map(|r| r.latency_ns).collect();
    all_lat.sort_unstable();
    let duration_ns = accepted
        .iter()
        .map(|r| r.start_ns + r.service_ns)
        .max()
        .unwrap_or(0);

    let count = |f: &dyn Fn(&QueryRecord) -> bool| records.iter().filter(|r| f(r)).count();
    let outcomes = OutcomeCounts {
        clean: count(&|r| r.outcome == Outcome::Clean),
        recovered: count(&|r| r.outcome == Outcome::Recovered),
        degraded: count(&|r| r.outcome == Outcome::Degraded),
        fault: count(&|r| matches!(r.outcome, Outcome::Fault(_))),
        error: count(&|r| matches!(r.outcome, Outcome::Error(_))),
        shed: count(&|r| r.outcome.is_shed()),
    };
    let admission_report = cfg.admission.enabled.then(|| {
        let offered = records.len();
        let shed = outcomes.shed;
        let admitted = offered - shed;
        let goodput = count(&in_goodput);
        let shed_for = |reason: ShedReason| count(&|r| r.outcome == Outcome::Shed(reason));
        let shed_fraction = if offered == 0 {
            0.0
        } else {
            shed as f64 / offered as f64
        };
        let tenants: Vec<TenantReport> = TENANTS
            .iter()
            .map(|&name| {
                let of = |f: fn(&QueryRecord) -> bool| count(&|r| r.tenant == name && f(r));
                let admitted = of(|r| !r.outcome.is_shed());
                TenantReport {
                    name,
                    offered: of(|_| true),
                    admitted,
                    shed: of(|r| r.outcome.is_shed()),
                    // An admitted query is always dispatched and completes.
                    completed: admitted,
                    goodput: of(in_goodput),
                }
            })
            .collect();
        let rates: Vec<f64> = tenants
            .iter()
            .filter(|t| t.offered > 0)
            .map(|t| t.goodput as f64)
            .collect();
        let tenant_goodput_ratio = match (
            rates.iter().cloned().fold(f64::NAN, f64::max),
            rates.iter().cloned().fold(f64::NAN, f64::min),
        ) {
            (max, min) if min > 0.0 => max / min,
            (max, _) if max > 0.0 => f64::INFINITY,
            _ => 1.0,
        };
        AdmissionReport {
            offered,
            admitted,
            shed_quota: shed_for(ShedReason::QuotaExceeded),
            shed_queue_full: shed_for(ShedReason::QueueFull),
            shed_deadline: shed_for(ShedReason::DeadlineUnmeetable),
            shed_fraction,
            shed_budget_exceeded: shed_fraction > cfg.admission.shed_budget,
            goodput,
            goodput_qps: if duration_ns == 0 {
                0.0
            } else {
                goodput as f64 * 1e9 / duration_ns as f64
            },
            tenant_goodput_ratio,
            corruptions: gate.corruptions,
            final_tier: gate.tier(),
            transitions: gate.brownout.transitions().to_vec(),
            tenants,
        }
    });

    LoadReport {
        device: cfg.device.name.clone(),
        arrival: cfg.arrival,
        rate_qps: cfg.rate_qps,
        seed: cfg.seed,
        fault_profile: cfg.fault.as_ref().map(|f| f.profile_name.clone()),
        outcomes,
        breached,
        duration_ns,
        p50_all_ns: percentile(&all_lat, 50.0),
        p99_all_ns: percentile(&all_lat, 99.0),
        achieved_qps: if duration_ns == 0 {
            0.0
        } else {
            accepted.len() as f64 * 1e9 / duration_ns as f64
        },
        records,
        slo,
        admission: admission_report,
        anatomy: cfg
            .anatomy
            .then(|| AnatomyReport::aggregate(&observer.anatomies)),
        postmortem: observer.postmortem,
        metrics: observer.metrics,
        stream,
        traces: observer.traces,
        flight_capacity: cfg.flight_capacity,
    }
}

/// The `loadgen · queries` track, drawn from the records in resolution
/// order: a shed is a zero-length span at its arrival; a served query spans
/// arrival to done, with its queue wait, tier and outcome.
fn stream_track(records: &[QueryRecord]) -> Trace {
    let stream = Tracer::enabled();
    let track = stream.track("loadgen · queries", TimeDomain::Virtual);
    for r in records {
        let mut args = vec![
            ("query_id", r.id.into()),
            ("tenant", r.tenant.into()),
            ("algorithm", r.template.slug().into()),
        ];
        if let Outcome::Shed(reason) = r.outcome {
            args.push(("shed_reason", reason.label().into()));
            let name = format!("q{} shed", r.id);
            stream.span_with(track, "shed", name, r.arrival_ns, r.arrival_ns, args);
        } else {
            args.push(("queue_wait_ns", r.queue_wait_ns.into()));
            args.push(("tier", r.tier.label().into()));
            args.push(("outcome", r.outcome.label().into()));
            let name = format!("q{} {}", r.id, r.template.slug());
            let done_ns = r.arrival_ns + r.latency_ns;
            stream.span_with(track, "query", name, r.arrival_ns, done_ns, args);
        }
    }
    stream.snapshot().unwrap_or_default()
}

/// Records one resolved query's `load.*` metrics from its record.
fn publish(metrics: &mut Metrics, r: &QueryRecord) {
    metrics.add("load.queries", 1);
    if r.outcome.is_shed() {
        return;
    }
    metrics.add("load.retries", r.retries);
    // Latency histograms carry an exemplar per hit bucket: the query id,
    // tenant, and its stream-clock offset, so a p99 bucket links straight
    // to the span in the merged timeline that caused it.
    let by_algorithm = match r.template.slug() {
        "ld" => "load.latency_ns.ld",
        "fastid" => "load.latency_ns.fastid",
        _ => "load.latency_ns.mixture",
    };
    let tenant = TENANTS.iter().position(|&t| t == r.tenant);
    for name in [
        by_algorithm,
        TENANT_LATENCY_METRICS[tenant.expect("a listed tenant")],
    ] {
        metrics.histogram_mut(name).record_with_exemplar(
            r.latency_ns,
            r.id,
            Some(r.tenant),
            r.start_ns,
        );
    }
    metrics.record("load.queue_wait_ns", r.queue_wait_ns);
}

/// Whether a query counts toward goodput: it completed without failing,
/// within its deadline when it had one.
fn in_goodput(r: &QueryRecord) -> bool {
    !r.outcome.is_shed()
        && !r.outcome.is_failure()
        && r.deadline_ns.is_none_or(|d| r.start_ns + r.service_ns <= d)
}

/// One measured offered-load level in a sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The offered rate at this point.
    pub rate_qps: f64,
    /// The full run report (timeline disabled for sweep points).
    pub report: LoadReport,
}

/// A saturation sweep: the same seeded stream replayed at stepped offered
/// loads, plus the detected latency-vs-throughput knee.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// Points in ascending offered-load order.
    pub points: Vec<SweepPoint>,
    /// Index of the first point past the knee (p99 ≥ 2× the lightest
    /// point's p99), if the sweep saturated.
    pub knee: Option<usize>,
}

/// The default offered-load ladder, as multiples of the base rate.
pub const SWEEP_MULTIPLIERS: [f64; 6] = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0];

/// Replays the stream at `multipliers × cfg.rate_qps` and locates the
/// saturation knee. Timeline recording is disabled per point (a sweep is
/// about aggregate latency, not span-level attribution).
pub fn saturation_sweep(cfg: &LoadConfig, multipliers: &[f64]) -> SweepReport {
    let mut points = Vec::with_capacity(multipliers.len());
    for &mult in multipliers {
        let mut point_cfg = cfg.clone();
        point_cfg.rate_qps = cfg.rate_qps * mult;
        point_cfg.record_timeline = false;
        let report = run(&point_cfg);
        points.push(SweepPoint {
            rate_qps: point_cfg.rate_qps,
            report,
        });
    }
    let base_p99 = points.first().map_or(0, |p| p.report.p99_all_ns);
    let knee = points
        .iter()
        .position(|p| base_p99 > 0 && p.report.p99_all_ns >= base_p99.saturating_mul(2));
    SweepReport { points, knee }
}

/// One overload-chaos cell: one algorithm's templates under the scenario.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// The algorithm slug (`ld`, `fastid`, `mixture`).
    pub algorithm: &'static str,
    /// The cell's run report (admission on).
    pub report: LoadReport,
}

/// The overload-chaos matrix: every algorithm replayed under overload and
/// a device fault at once.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The scenario every cell ran (its templates are all the cells').
    pub config: LoadConfig,
    /// One cell per algorithm, in template order.
    pub cells: Vec<ChaosCell>,
}

/// The offered-load multiple overload-chaos runs at.
pub const CHAOS_RATE_MULTIPLIER: f64 = 8.0;

/// Runs the combined overload + fault scenario: bursty arrivals at
/// [`CHAOS_RATE_MULTIPLIER`] × `cfg.rate_qps` through the admission gate,
/// and `cfg.fault` — by default the device lost at host command 2 of
/// query `queries / 3`. Each run of `cfg.templates` sharing an algorithm
/// is one cell.
pub fn overload_chaos(cfg: &LoadConfig) -> ChaosReport {
    let mut config = cfg.clone();
    config.rate_qps *= CHAOS_RATE_MULTIPLIER;
    config.arrival = ArrivalKind::Bursty;
    config.admission.enabled = true;
    config.fault.get_or_insert_with(|| FaultSpec {
        profile_name: "loss@2".to_string(),
        profile: FaultProfile {
            device_loss_at: Some(2),
            ..FaultProfile::none()
        },
        at_query: Some(cfg.queries / 3),
    });
    let cells = config
        .templates
        .chunk_by(|a, b| a.slug() == b.slug())
        .map(|templates| {
            let mut cell = config.clone();
            cell.templates = templates.to_vec();
            ChaosCell {
                algorithm: templates[0].slug(),
                report: run(&cell),
            }
        })
        .collect();
    ChaosReport { config, cells }
}

impl SweepReport {
    /// Minimum goodput of the points past the knee, as a fraction of the
    /// knee point's goodput — the "stays up past saturation" figure.
    /// `None` without a knee or without post-knee points.
    pub fn goodput_retention(&self) -> Option<f64> {
        let knee = self.knee?;
        let at_knee = self.points[knee].report.goodput_qps();
        if at_knee <= 0.0 {
            return None;
        }
        self.points[knee..]
            .iter()
            .map(|p| p.report.goodput_qps() / at_knee)
            .fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |a| a.min(v)))
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use snp_gpu_model::devices;
    use snp_trace::chrome;

    fn small_cfg() -> LoadConfig {
        let mut cfg = LoadConfig::new(
            devices::titan_v(),
            vec![Template::Ld, Template::FastIdTopK, Template::Mixture],
        );
        cfg.queries = 24;
        cfg
    }

    #[test]
    fn run_is_deterministic_and_queue_is_consistent() {
        let cfg = small_cfg();
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.latency_ns, y.latency_ns);
            assert_eq!(x.outcome, y.outcome);
        }
        for r in &a.records {
            assert_eq!(r.latency_ns, r.queue_wait_ns + r.service_ns);
            assert!(r.start_ns >= r.arrival_ns);
        }
        assert_eq!(a.p99_all_ns, b.p99_all_ns);
    }

    #[test]
    fn one_config_exports_the_same_timeline_twice_in_one_process() {
        let cfg = small_cfg();
        let export = || chrome::export_chrome_trace(&run(&cfg).timeline().unwrap());
        assert_eq!(export(), export());
    }

    #[test]
    fn disabled_admission_is_fifo_in_arrival_order() {
        let report = run(&small_cfg());
        assert!(report.admission.is_none());
        let mut server_free = 0u64;
        for r in &report.records {
            assert_eq!(r.start_ns, r.arrival_ns.max(server_free), "q{}", r.id);
            assert_eq!(r.tier, Tier::Full);
            assert_eq!(r.deadline_ns, None);
            server_free = r.start_ns + r.service_ns;
        }
    }

    #[test]
    fn timeline_validates_and_attributes_queries() {
        let report = run(&small_cfg());
        let timeline = report.timeline().expect("timeline recorded");
        let json = chrome::export_chrome_trace(&timeline);
        chrome::validate(&json).expect("merged timeline is valid");
        // Every engine-run span carries its query id.
        let runs: Vec<_> = timeline.events.iter().filter(|e| e.cat == "run").collect();
        assert!(!runs.is_empty());
        assert!(runs
            .iter()
            .all(|e| e.args.iter().any(|(k, _)| *k == "query_id")));
    }

    #[test]
    fn device_loss_dumps_a_postmortem_with_the_query_id() {
        let mut cfg = small_cfg();
        // The stock `loss` profile drops the device at command #9; the
        // small loadgen workloads finish in fewer host commands, so pull
        // the loss earlier to guarantee it lands.
        cfg.fault = Some(FaultSpec {
            profile_name: "loss".into(),
            profile: FaultProfile {
                device_loss_at: Some(2),
                ..FaultProfile::loss()
            },
            at_query: Some(3),
        });
        let report = run(&cfg);
        // The armed query either surfaced a typed fault (postmortem at
        // fault time) or completed degraded via recovery.
        let armed = &report.records[3];
        assert!(
            armed.outcome != Outcome::Clean,
            "fault plan had no effect: {:?}",
            armed.outcome
        );
        let pm = report.postmortem.as_ref().expect("device loss must dump");
        let json = report.postmortem_json().unwrap();
        chrome::validate(&json).expect("postmortem bundle is valid");
        assert!(json.contains("\"query_id\":3"), "dump names the query");
        assert!(pm.reason.contains("query 3"));
    }

    #[test]
    fn saturation_sweep_finds_a_knee_under_overload() {
        let mut cfg = small_cfg();
        cfg.queries = 16;
        // Base rate low; highest multiplier must saturate the server.
        cfg.rate_qps = 500.0;
        let sweep = saturation_sweep(&cfg, &[1.0, 64.0, 4096.0]);
        assert_eq!(sweep.points.len(), 3);
        let p99s: Vec<u64> = sweep.points.iter().map(|p| p.report.p99_all_ns).collect();
        assert!(
            p99s.last().unwrap() > p99s.first().unwrap(),
            "overload did not raise p99: {p99s:?}"
        );
        assert!(sweep.knee.is_some(), "no knee found: {p99s:?}");
    }

    #[test]
    fn every_breaching_sweep_point_names_its_reason() {
        // `loadgen all --device titan-v --mode sweep --queries 24 --seed 42
        // --slo-p99-ms 0.05`: every point breaches its p99 objective.
        let mut cfg = LoadConfig::new(
            devices::titan_v(),
            vec![
                Template::Ld,
                Template::FastId,
                Template::FastIdTopK,
                Template::Mixture,
            ],
        );
        cfg.queries = 24;
        cfg.seed = 42;
        let per_algorithm = cfg.slo.per_algorithm.iter_mut().map(|(_, slo)| slo);
        for slo in per_algorithm.chain([&mut cfg.slo.default]) {
            slo.p99_ns = 50_000;
        }
        let sweep = saturation_sweep(&cfg, &SWEEP_MULTIPLIERS);
        assert!(sweep.points.iter().all(|p| p.report.breached));
        for p in &sweep.points {
            let reason = p.report.postmortem.as_ref().map(|pm| pm.reason.as_str());
            assert!(
                reason.is_some_and(|r| r.starts_with("slo breach: ")),
                "{} qps: {reason:?}",
                p.rate_qps
            );
        }
    }

    #[test]
    fn admission_sheds_typed_under_overload_and_never_sheds_admitted() {
        let mut cfg = small_cfg();
        cfg.queries = 48;
        cfg.arrival = ArrivalKind::Bursty;
        cfg.rate_qps = 200_000.0; // far past saturation
        cfg.admission = AdmissionConfig {
            queue_cap: 4,
            ..AdmissionConfig::standard()
        };
        let report = run(&cfg);
        let adm = report.admission.as_ref().expect("admission report");
        assert!(adm.offered == 48);
        assert!(outcome_counts_consistent(&report));
        assert!(adm.shed_fraction > 0.0, "overload must shed");
        // Typed, never silent: every shed names its gate.
        for r in &report.records {
            if let Outcome::Shed(reason) = &r.outcome {
                assert!(!reason.label().is_empty());
                assert_eq!(r.service_ns, 0);
            }
        }
        // An admitted query always completes: admitted == completed.
        assert_eq!(
            adm.admitted,
            report.outcomes.clean
                + report.outcomes.recovered
                + report.outcomes.degraded
                + report.outcomes.fault
                + report.outcomes.error
        );
        assert_eq!(adm.corruptions, 0, "clean run cannot corrupt");
        // Accepted-query latency stays bounded by the queue cap: the SLO
        // over accepted queries must hold even at this offered rate.
        assert!(!report.breached, "{:?}", report.slo);
    }

    fn outcome_counts_consistent(report: &LoadReport) -> bool {
        let o = &report.outcomes;
        o.clean + o.recovered + o.degraded + o.fault + o.error + o.shed == report.records.len()
    }

    #[test]
    fn fairness_holds_under_equal_weights() {
        let mut cfg = small_cfg();
        cfg.queries = 64;
        cfg.arrival = ArrivalKind::Bursty;
        cfg.rate_qps = 16_000.0;
        cfg.admission = AdmissionConfig::standard();
        let report = run(&cfg);
        let adm = report.admission.unwrap();
        assert!(
            adm.tenant_goodput_ratio <= 2.0,
            "tenant starved: ratio {} ({:?})",
            adm.tenant_goodput_ratio,
            adm.tenants
        );
    }

    #[test]
    fn brownout_steps_down_under_sustained_overload() {
        let mut cfg = small_cfg();
        cfg.queries = 96;
        cfg.arrival = ArrivalKind::Bursty;
        cfg.rate_qps = 64_000.0;
        cfg.admission = AdmissionConfig {
            queue_cap: 64,
            ..AdmissionConfig::standard()
        };
        let report = run(&cfg);
        let adm = report.admission.unwrap();
        assert!(
            !adm.transitions.is_empty(),
            "sustained 32x overload must trip the brownout"
        );
        assert!(report
            .records
            .iter()
            .any(|r| r.tier != Tier::Full && !r.outcome.is_shed()));
    }

    /// Recounts every count the report publishes from its per-query
    /// records, independently of how `run` derives them.
    fn assert_counts_are_recounts(cfg: &LoadConfig, report: &LoadReport) {
        let rs = &report.records;
        let count = |f: &dyn Fn(&QueryRecord) -> bool| rs.iter().filter(|r| f(r)).count();
        let shed_for = |reason: ShedReason| count(&|r| r.outcome == Outcome::Shed(reason));
        let good = |r: &QueryRecord| {
            !r.outcome.is_shed()
                && !r.outcome.is_failure()
                && r.deadline_ns
                    .is_none_or(|d| r.arrival_ns + r.latency_ns <= d)
        };
        let o = report.outcomes;
        assert_eq!(o.clean, count(&|r| r.outcome == Outcome::Clean));
        assert_eq!(o.recovered, count(&|r| r.outcome == Outcome::Recovered));
        assert_eq!(o.degraded, count(&|r| r.outcome == Outcome::Degraded));
        assert_eq!(o.fault, count(&|r| matches!(r.outcome, Outcome::Fault(_))));
        assert_eq!(o.error, count(&|r| matches!(r.outcome, Outcome::Error(_))));
        assert_eq!(o.shed, count(&|r| r.outcome.is_shed()));
        let Some(a) = &report.admission else {
            assert!(!cfg.admission.enabled);
            assert_eq!(o.shed, 0, "sheds need admission");
            return;
        };
        assert_eq!(a.offered, rs.len());
        assert_eq!(a.admitted, count(&|r| !r.outcome.is_shed()));
        assert_eq!(a.shed_quota, shed_for(ShedReason::QuotaExceeded));
        assert_eq!(a.shed_queue_full, shed_for(ShedReason::QueueFull));
        assert_eq!(a.shed_deadline, shed_for(ShedReason::DeadlineUnmeetable));
        assert_eq!(a.goodput, count(&good));
        assert_eq!(a.tenants.len(), TENANTS.len());
        for (t, name) in a.tenants.iter().zip(TENANTS) {
            let of = |f: &dyn Fn(&QueryRecord) -> bool| count(&|r| r.tenant == name && f(r));
            assert_eq!(t.name, name);
            assert_eq!(t.offered, of(&|_| true));
            assert_eq!(t.admitted, of(&|r| !r.outcome.is_shed()));
            assert_eq!(t.shed, of(&|r| r.outcome.is_shed()));
            assert_eq!(t.completed, of(&|r| !r.outcome.is_shed()));
            assert_eq!(t.goodput, of(&good));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The outcome, shed and tenant counts of a report are recounts of
        /// its records, over seeds, both arrival kinds, a range of offered
        /// rates, fault profiles, and admission on and off.
        #[test]
        fn report_counts_are_recounts_of_the_records(
            seed in any::<u64>(),
            bursty in any::<bool>(),
            rate_step in 0u32..6,
            admission in any::<bool>(),
            queue_cap in 2usize..16,
            slack_step in 0u32..8,
            fault in 0usize..FaultProfile::NAMES.len() + 2,
        ) {
            let mut cfg = small_cfg();
            cfg.seed = seed;
            cfg.arrival = if bursty { ArrivalKind::Bursty } else { ArrivalKind::Poisson };
            cfg.rate_qps = 1_000.0 * 4f64.powi(rate_step as i32);
            cfg.record_timeline = false;
            if admission {
                cfg.admission = AdmissionConfig {
                    queue_cap,
                    deadline_slack: 4.0 / 4f64.powi(slack_step as i32),
                    ..AdmissionConfig::standard()
                };
            }
            // Every named profile, the device lost early in every query
            // (so queries complete degraded), or no faults.
            let loss_early = FaultProfile {
                device_loss_at: Some(2),
                ..FaultProfile::none()
            };
            let profile = match FaultProfile::NAMES.get(fault) {
                Some(name) => Some(FaultProfile::by_name(name).expect("a listed profile")),
                None => (fault == FaultProfile::NAMES.len()).then_some(loss_early),
            };
            cfg.fault = profile.map(|profile| FaultSpec {
                profile_name: "drawn".into(),
                profile,
                at_query: None,
            });
            let report = run(&cfg);
            assert_counts_are_recounts(&cfg, &report);
        }
    }

    #[test]
    fn shed_storm_dumps_the_flight_recorder() {
        let mut cfg = small_cfg();
        cfg.queries = 64;
        cfg.arrival = ArrivalKind::Bursty;
        cfg.rate_qps = 500_000.0;
        cfg.admission = AdmissionConfig {
            queue_cap: 2,
            shed_budget: 0.1,
            ..AdmissionConfig::standard()
        };
        let report = run(&cfg);
        let adm = report.admission.as_ref().unwrap();
        assert!(
            adm.shed_budget_exceeded,
            "shed {} of {}",
            adm.shed_fraction, adm.offered
        );
        let pm = report.postmortem.as_ref().expect("storm must dump");
        assert!(pm.reason.contains("shed storm"), "{}", pm.reason);
        let json = report.postmortem_json().unwrap();
        chrome::validate(&json).expect("storm bundle is a valid Chrome trace");
    }
}
