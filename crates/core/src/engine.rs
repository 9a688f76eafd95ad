//! The end-to-end engine: host orchestration of the portable framework.
//!
//! Implements the paper's measured pipeline (§VI-A-1): open the device (the
//! OpenCL initialization cost lands on the host clock), pack the bit
//! matrices into transfer buffers, upload, launch the configured kernel
//! over the pass plan, and read results back — with double buffering so
//! data transfer and host packing overlap computation.
//!
//! One tile-pass loop runs that pipeline for every entry point. The entry
//! point picks its *sink*, what happens to each chunk's `γ` block:
//! [`GpuEngine::compare`] scatters it into the full matrix, and
//! [`GpuEngine::identity_search_topk`] reduces it to each query's best `k`
//! on the device. An armed [`FaultPlan`] picks the *schedule*: pipelined
//! without one, checkpointed and recovering with one (DESIGN.md §10.2).
//!
//! Two execution modes:
//!
//! * [`ExecMode::Full`] — buffers hold real words, kernels compute bit-exact
//!   `γ` (validated against the scalar reference), timing is modeled;
//! * [`ExecMode::TimingOnly`] — identical command stream and timing, but
//!   virtual buffers and no functional work, enabling NDIS-scale sweeps
//!   (Fig. 8) without gigabytes of host RAM.

use snp_bitmat::{BitMatrix, CompareOp, CountMatrix};
use snp_cpu::CpuEngine;
use snp_faults::{checksum_words, DeviceFault, FaultKind, FaultOp, FaultPlan};
use snp_gpu_model::config::{Algorithm, ProblemShape};
use snp_gpu_model::{DeviceSpec, KernelConfig};
use snp_gpu_sim::host::{BufferId, CostScale, EventId, Gpu, KernelCost, QueueId, SimError};
use snp_gpu_sim::macro_engine::{TIMING_CACHE_HITS_METRIC, TIMING_CACHE_MISSES_METRIC};
use snp_trace::{Metrics, TimeDomain, Tracer};

use crate::autoconf::{compare_op, config_for, word_op_kind, MixtureStrategy};
use crate::cpu_model::CpuModel;
use crate::kernel::{execute_gamma, lowering_for, KernelPlan, Lowering};
use crate::recovery::{backoff_for, QueueHealth, RecoverySummary, MAX_RETRIES};
use crate::streaming::{merge_topk, reduction_cost, topk_of_row, Match, TopKReport};
use crate::tiling::{plan_passes, Chunk, PlanError, TilePlan};

/// Whether kernels execute functionally or timing-only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecMode {
    /// Compute real results (and model time).
    Full,
    /// Model time only; `gamma` is absent from the report.
    TimingOnly,
}

/// Engine options.
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Execution mode.
    pub mode: ExecMode,
    /// Overlap transfers with compute using paired buffers (§VI-A-1).
    pub double_buffer: bool,
    /// Mixture-analysis strategy (§II-C / Fig. 9).
    pub mixture: MixtureStrategy,
    /// Run the `snp-verify` race detector on the finished command stream
    /// and fail the run on any ordering hazard. Defaults to on in debug
    /// builds, off in release builds.
    pub verify: bool,
    /// Virtual-cost scale armed on every device the engine opens, for
    /// Coz-style what-if replay (`snpgpu whatif`). The default identity
    /// leaves all timing bit-exact.
    pub cost_scale: CostScale,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            mode: ExecMode::Full,
            double_buffer: true,
            mixture: MixtureStrategy::Direct,
            verify: cfg!(debug_assertions),
            cost_scale: CostScale::default(),
        }
    }
}

/// Wall-time breakdown of a run, all in virtual nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Timing {
    /// One-time runtime initialization (charged at device open).
    pub init_ns: u64,
    /// Host-side packing (overlappable with device work).
    pub pack_ns: u64,
    /// Sum of kernel execution durations (event profiling).
    pub kernel_ns: u64,
    /// Sum of host→device transfer durations.
    pub transfer_in_ns: u64,
    /// Sum of device→host transfer durations.
    pub transfer_out_ns: u64,
    /// Virtual time spent on recovery actions: retry backoff and
    /// CPU-fallback compute after device loss. Zero on the fault-free
    /// fast path.
    pub recovery_ns: u64,
    /// Host clock when everything finished — the paper's end-to-end time
    /// (inclusive of initialization and all overlap effects).
    pub end_to_end_ns: u64,
}

impl Timing {
    /// Virtual time spent after initialization.
    pub fn busy_ns(&self) -> u64 {
        self.end_to_end_ns.saturating_sub(self.init_ns)
    }

    /// Reconciles the phase sums against the end-to-end time.
    ///
    /// The engine's command stream runs over three serialized resources —
    /// the host (packing), the link (one transfer at a time), and the
    /// compute engine (one kernel at a time) — so the phase totals must
    /// bracket the end-to-end measurement:
    ///
    /// * each resource's busy time fits inside the post-init window
    ///   (per-resource lower bounds on `end_to_end`), and
    /// * every instant of the post-init window is attributable to at least
    ///   one busy resource along the critical path, so the phase *sum*
    ///   bounds `end_to_end` from above.
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let busy = self.busy_ns();
        if self.end_to_end_ns < self.init_ns {
            return Err(format!(
                "end_to_end {} < init {}",
                self.end_to_end_ns, self.init_ns
            ));
        }
        if self.kernel_ns > busy {
            return Err(format!(
                "kernel time {} exceeds post-init window {busy}",
                self.kernel_ns
            ));
        }
        let link = self.transfer_in_ns + self.transfer_out_ns;
        if link > busy {
            return Err(format!(
                "transfer time {link} exceeds post-init window {busy}"
            ));
        }
        if self.pack_ns > busy {
            return Err(format!(
                "pack time {} exceeds post-init window {busy}",
                self.pack_ns
            ));
        }
        if self.recovery_ns > busy {
            return Err(format!(
                "recovery time {} exceeds post-init window {busy}",
                self.recovery_ns
            ));
        }
        let union = self.pack_ns + self.kernel_ns + link + self.recovery_ns;
        if busy > union {
            return Err(format!(
                "post-init window {busy} exceeds the sum of phase times {union}: \
                 some interval is attributed to no resource"
            ));
        }
        Ok(())
    }
}

/// Result of one engine run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The `γ` matrix (None in timing-only mode).
    pub gamma: Option<CountMatrix>,
    /// Timing breakdown.
    pub timing: Timing,
    /// Logical word-ops computed.
    pub word_ops: u128,
    /// Global-memory bytes the comparison and reduction kernels were
    /// charged for: the sum of each launch's `KernelCost::traffic`.
    pub kernel_bytes: u64,
    /// Kernel launches issued.
    pub passes: usize,
    /// The configuration used.
    pub config: KernelConfig,
    /// Word-op throughput over kernel time only (the Fig. 5 quantity).
    pub kernel_word_ops_per_sec: f64,
    /// Command-stream verification findings (when
    /// [`EngineOptions::verify`] is on; always hazard-free, since hazards
    /// abort the run).
    pub verify_report: Option<snp_verify::Report>,
    /// What the recovery layer did (None on the fault-free fast path).
    /// [`RecoverySummary::degraded`] distinguishes a run that finished on
    /// the CPU after device loss from one that recovered fully on-device.
    pub recovery: Option<RecoverySummary>,
    /// This run's metrics (DESIGN.md §8.2): each chunk's kernel time
    /// (`sim.profile.kernel_chunk_ns`), each host GEMM's parallel schedule
    /// (`cpu.parallel.*`), its timing-memo lookups
    /// (`sim.timing_cache.{hits,misses}`) and its recovery
    /// (`engine.recovery.*`).
    pub metrics: Metrics,
}

/// Metric name of the distribution of per-chunk kernel times, in virtual
/// ns; the run's trace samples the same values on its counter track.
const KERNEL_CHUNK_METRIC: &str = "sim.profile.kernel_chunk_ns";

/// Errors from an engine run.
#[derive(Debug)]
#[non_exhaustive]
pub enum EngineError {
    /// Pass planning failed.
    Plan(PlanError),
    /// The simulated device rejected a command.
    Device(snp_gpu_sim::SimError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Plan(e) => write!(f, "planning: {e}"),
            EngineError::Device(e) => write!(f, "device: {e}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Plan(e) => Some(e),
            EngineError::Device(e) => Some(e),
        }
    }
}

impl From<PlanError> for EngineError {
    fn from(e: PlanError) -> Self {
        EngineError::Plan(e)
    }
}

impl From<snp_gpu_sim::SimError> for EngineError {
    fn from(e: snp_gpu_sim::SimError) -> Self {
        EngineError::Device(e)
    }
}

impl EngineError {
    /// The injected device fault at the root of this error, if any —
    /// the end of the `source()` chain.
    pub fn device_fault(&self) -> Option<&snp_faults::DeviceFault> {
        match self {
            EngineError::Device(SimError::DeviceFault(f)) => Some(f),
            _ => None,
        }
    }

    /// Whether this error is a command-stream ordering hazard from the
    /// race detector.
    pub fn is_hazard(&self) -> bool {
        matches!(self, EngineError::Device(SimError::Hazard(_)))
    }
}

/// Converts host rows `lo..hi` of a 64-bit-packed matrix into the device's
/// little-endian 32-bit word stream (two device words per host word) in a
/// caller-owned staging buffer: `out` is cleared and refilled, so its
/// allocation is reused across tile iterations instead of being freed and
/// re-grown once per pass (the simulated writes copy the staging data
/// synchronously, so reuse is safe under double buffering).
pub fn device_words_into(m: &BitMatrix<u64>, lo: usize, hi: usize, out: &mut Vec<u32>) {
    let wpr = m.words_per_row();
    out.clear();
    out.reserve((hi - lo) * wpr * 2);
    for r in lo..hi {
        for &w in m.row(r) {
            out.push(w as u32);
            out.push((w >> 32) as u32);
        }
    }
}

/// The inverse of [`device_words_into`]: re-pairs the first `rows` device
/// rows of `k_words` words each into 64-bit host rows, low word first. An
/// odd `k_words` leaves the high half of each row's last host word zero,
/// which no comparison operator counts.
pub(crate) fn host_rows(words: &[u32], rows: usize, k_words: usize) -> BitMatrix<u64> {
    let wpr = k_words.div_ceil(2);
    let mut data = Vec::with_capacity(rows * wpr);
    for row in words[..rows * k_words].chunks_exact(k_words.max(1)) {
        data.extend(
            row.chunks(2)
                .map(|p| p[0] as u64 | p.get(1).map_or(0, |&hi| (hi as u64) << 32)),
        );
    }
    BitMatrix::from_words(rows, wpr * 64, wpr, data)
}

/// The portable SNP-comparison engine over a simulated device.
#[derive(Debug, Clone)]
pub struct GpuEngine {
    spec: DeviceSpec,
    options: EngineOptions,
    tracer: Tracer,
    faults: Option<FaultPlan>,
}

impl GpuEngine {
    /// An engine with default options (full execution, double buffering).
    pub fn new(spec: DeviceSpec) -> Self {
        GpuEngine {
            spec,
            options: EngineOptions::default(),
            tracer: Tracer::disabled(),
            faults: None,
        }
    }

    /// Overrides the options.
    pub fn with_options(mut self, options: EngineOptions) -> Self {
        self.options = options;
        self
    }

    /// Arms deterministic fault injection: every run consults a fresh clone
    /// of `plan` (so repeated runs replay identical fault sequences) and
    /// takes the recovering schedule — sequential, checksum-verified,
    /// chunk-checkpointed (DESIGN.md §10). Without a plan, runs take the
    /// pipelined schedule and no recovery machinery executes.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Records every run on `tracer`: a run-level span plus the per-command
    /// device timeline (see [`Gpu::with_tracer`]) and each chunk's kernel
    /// time. The default is a disabled tracer, which costs nothing.
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.tracer = tracer;
        self
    }

    /// The tracer runs record into.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The device this engine targets.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// The options in effect.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// Linkage disequilibrium: AND self-comparison (Eq. 1).
    pub fn ld_self(&self, panel: &BitMatrix<u64>) -> Result<RunReport, EngineError> {
        self.compare(panel, panel, Algorithm::LinkageDisequilibrium)
    }

    /// FastID identity search (Eq. 2).
    pub fn identity_search(
        &self,
        queries: &BitMatrix<u64>,
        database: &BitMatrix<u64>,
    ) -> Result<RunReport, EngineError> {
        self.compare(queries, database, Algorithm::IdentitySearch)
    }

    /// FastID mixture analysis (Eq. 3), honoring the configured
    /// [`MixtureStrategy`].
    pub fn mixture_analysis(
        &self,
        references: &BitMatrix<u64>,
        mixtures: &BitMatrix<u64>,
    ) -> Result<RunReport, EngineError> {
        self.compare(references, mixtures, Algorithm::MixtureAnalysis)
    }

    /// Runs `algorithm` on `a × bᵀ` end to end.
    pub fn compare(
        &self,
        a: &BitMatrix<u64>,
        b: &BitMatrix<u64>,
        algorithm: Algorithm,
    ) -> Result<RunReport, EngineError> {
        assert_eq!(
            a.words_per_row(),
            b.words_per_row(),
            "operands disagree on packed width"
        );
        // Pre-negation happens "in advance" on the stored database
        // (paper §II-C), so it is not charged to the run.
        let b_owned;
        let b_eff: &BitMatrix<u64> = if algorithm == Algorithm::MixtureAnalysis
            && self.options.mixture == MixtureStrategy::PreNegate
        {
            b_owned = b.negated();
            &b_owned
        } else {
            b
        };
        let (m, n) = (a.rows(), b_eff.rows());
        let shape = ProblemShape {
            m,
            n,
            k_words: 2 * a.words_per_row(),
        };
        let gamma = (self.options.mode == ExecMode::Full).then(|| CountMatrix::zeros(m, n));
        self.drive(a, b_eff, shape, algorithm, Sink::Gamma(gamma))
            .map(|(run, _)| run)
    }

    /// FastID identity search returning only the best `k` database matches
    /// per query. Identical candidate sets to a full
    /// [`identity_search`](Self::identity_search) followed by host-side
    /// selection (tested), at a fraction of the readback traffic.
    pub fn identity_search_topk(
        &self,
        queries: &BitMatrix<u64>,
        database: &BitMatrix<u64>,
        k: usize,
    ) -> Result<TopKReport, EngineError> {
        assert!(k >= 1, "k must be at least 1");
        assert_eq!(
            queries.words_per_row(),
            database.words_per_row(),
            "packed width mismatch"
        );
        let (m, n) = (queries.rows(), database.rows());
        let shape = ProblemShape {
            m,
            n,
            k_words: 2 * queries.words_per_row(),
        };
        let sink = Sink::TopK {
            k,
            lists: (self.options.mode == ExecMode::Full).then(|| vec![Vec::new(); m]),
            readback_bytes: 0,
        };
        match self.drive(queries, database, shape, Algorithm::IdentitySearch, sink)? {
            (
                run,
                Sink::TopK {
                    lists,
                    readback_bytes,
                    ..
                },
            ) => Ok(TopKReport {
                matches: lists,
                timing: run.timing,
                passes: run.passes,
                full_readback_bytes: (m * n * 4) as u64,
                topk_readback_bytes: readback_bytes,
                recovery: run.recovery,
                metrics: run.metrics,
            }),
            (_, Sink::Gamma(_)) => unreachable!("`drive` returns the sink it was given"),
        }
    }

    /// Runs the full command stream for `shape` in timing-only mode without
    /// materializing operands — the entry point for linting and sweeping
    /// database-scale problems whose bit matrices would not fit host RAM.
    pub fn run_shape(
        &self,
        shape: ProblemShape,
        algorithm: Algorithm,
    ) -> Result<RunReport, EngineError> {
        let mut eng = self.clone();
        eng.options.mode = ExecMode::TimingOnly;
        // Timing-only never touches operand words, so empty placeholders
        // stand in for the matrices.
        let empty = BitMatrix::zeros(0, 0);
        eng.drive(&empty, &empty, shape, algorithm, Sink::Gamma(None))
            .map(|(run, _)| run)
    }

    /// The tile-pass loop behind every entry point: plans the passes for
    /// `shape`, runs the plan's m × n chunk loop once in m-major order and
    /// hands each chunk's `γ` block to `sink`. Without a fault plan the
    /// chunks are software-pipelined over paired slots (§VI-A-1). With one
    /// they run one at a time — one slot, the scalar lowering, bounded
    /// retry, checksum-verified readback — and a device loss resumes from
    /// the last verified chunk on the CPU (DESIGN.md §10.2). The report
    /// carries the gamma sink's matrix; the sink comes back for the rest.
    fn drive(
        &self,
        a: &BitMatrix<u64>,
        b: &BitMatrix<u64>,
        shape: ProblemShape,
        algorithm: Algorithm,
        sink: Sink,
    ) -> Result<(RunReport, Sink), EngineError> {
        let op = compare_op(algorithm, self.options.mixture);
        let cfg = config_for(&self.spec, algorithm, shape);
        // A recovering run allocates one B/C slot, so it plans for one.
        let double_buffer = self.options.double_buffer && self.faults.is_none();
        let plan = plan_passes(
            &self.spec,
            &cfg,
            shape.m,
            shape.n,
            shape.k_words,
            sink.words_per_row(),
            double_buffer,
        )?;
        let gpu = Gpu::with_tracer(self.spec.clone(), self.tracer.clone());
        gpu.set_cost_scale(self.options.cost_scale);
        let recovering = self.faults.as_ref().map(|faults| {
            gpu.set_fault_plan(faults.clone());
            Recovering {
                summary: RecoverySummary {
                    total_chunks: plan.passes(),
                    ..Default::default()
                },
                health: Default::default(),
            }
        });
        let init_ns = gpu.now_ns();
        let run_track = self.tracer.track("engine", TimeDomain::Virtual);
        let name = match sink {
            Sink::Gamma(_) => algorithm.name(),
            Sink::TopK { .. } => "streaming top-k",
        };
        let run_span = self
            .tracer
            .begin_span(run_track, "run", format!("run: {name}"), 0);
        let queues = LANES.map(|label| gpu.create_queue_labeled(label));

        let dev = Device {
            gpu,
            full: self.options.mode == ExecMode::Full,
        };
        let copies = if plan.double_buffered { 2 } else { 1 };
        let slots = |words: usize| -> Result<Vec<BufferId>, SimError> {
            (0..copies).map(|_| dev.buffer(words)).collect()
        };
        let a_buf = dev.buffer(plan.a_buffer_words())?;
        let b_bufs = slots(plan.b_buffer_words())?;
        let c_bufs = slots(plan.c_buffer_words())?;
        let t_bufs = match sink {
            Sink::TopK { .. } => slots(plan.sink_buffer_words())?,
            Sink::Gamma(_) => Vec::new(),
        };
        let lowering = if recovering.is_some() {
            // Re-executed chunks must not depend on a faulting matrix unit;
            // the scalar program is the bit-exact oracle on every device.
            Lowering::Scalar
        } else {
            lowering_for(&self.spec, &cfg)
        };
        let mut pass = Pass {
            spec: &self.spec,
            dev,
            lanes: Lanes {
                queues,
                recovering,
                metrics: Metrics::new(),
            },
            sink,
            a,
            b,
            op,
            cfg,
            plan,
            lowering,
            drop_b_dep: self
                .faults
                .as_ref()
                .is_some_and(|f| f.profile().drop_kernel_b_dep),
            a_buf,
            b_bufs,
            c_bufs,
            t_bufs,
            up: Vec::new(),
            down: Vec::new(),
            pack_ns: 0,
            word_ops: 0,
            kernel_bytes: 0,
            kernel_events: Vec::new(),
            in_events: Vec::new(),
            out_events: Vec::new(),
            ev_a: None,
            ev_b: None,
            last_kernel: vec![None; copies],
            last_read: vec![None; copies],
        };

        let n_chunks = pass.plan.n_chunks.len();
        let mut fallback_ns = 0;
        for ci in 0..pass.plan.passes() {
            if let Err(e) = pass.chunk(ci / n_chunks, ci % n_chunks) {
                // A device loss keeps the checkpointed prefix; any other
                // error aborts the run.
                if !e
                    .device_fault()
                    .is_some_and(|f| f.kind == FaultKind::DeviceLoss)
                {
                    return Err(e);
                }
                fallback_ns = pass.fall_back(ci, e)?;
                break;
            }
        }

        let Pass {
            dev: Device { gpu, .. },
            lanes,
            mut sink,
            plan,
            pack_ns,
            word_ops,
            kernel_bytes,
            kernel_events,
            in_events,
            out_events,
            ..
        } = pass;
        gpu.finish_all();
        let mut metrics = lanes.metrics;
        let recovery = lanes.recovering.map(|Recovering { mut summary, .. }| {
            summary.injected = gpu.fault_stats();
            summary.stalls_absorbed = summary.injected.queue_stalls;
            summary.record(&mut metrics);
            summary
        });
        let duration = |&e: &EventId| gpu.event_profile(e).map(|p| p.duration_ns()).unwrap_or(0);
        // Each chunk's kernel time also feeds `sim.profile.kernel_chunk_ns`,
        // the distribution behind the `kernel_ns` total.
        let kernel_ns = kernel_events
            .iter()
            .map(|e| {
                let d = duration(e);
                metrics.record(KERNEL_CHUNK_METRIC, d);
                d
            })
            .sum();
        let timing = Timing {
            init_ns,
            pack_ns,
            kernel_ns,
            transfer_in_ns: in_events.iter().map(duration).sum(),
            transfer_out_ns: out_events.iter().map(duration).sum(),
            recovery_ns: recovery.as_ref().map_or(0, |s| s.backoff_ns) + fallback_ns,
            end_to_end_ns: gpu.now_ns(),
        };
        debug_assert!(
            timing.validate().is_ok(),
            "timing reconciliation failed: {} ({timing:?})",
            timing.validate().unwrap_err()
        );
        // Static verification of the finished command stream. The timing
        // sums above profiled every event, so events consumed only for
        // timing do not show up as dead. Hazards (missing ordering edges)
        // abort the run, recovered and partial streams included; warnings
        // and infos ride along on the report.
        let verify_report = if self.options.verify {
            let report = snp_verify::verify_command_log(&gpu.command_log());
            if report.has_errors() {
                return Err(EngineError::Device(SimError::Hazard(
                    report.render_text("command stream"),
                )));
            }
            Some(report)
        } else {
            None
        };
        if self.tracer.is_enabled() {
            let mut args = vec![
                ("passes", kernel_events.len().into()),
                ("word_ops", (word_ops as u64).into()),
                ("device", self.spec.name.as_str().into()),
                ("double_buffered", u64::from(plan.double_buffered).into()),
            ];
            if let Some(s) = &recovery {
                args.extend([
                    ("retries", s.retries.into()),
                    ("corruption_detected", s.corruption_detected.into()),
                    ("device_lost", u64::from(s.device_lost).into()),
                ]);
            }
            self.tracer
                .end_span_with(run_span, timing.end_to_end_ns, args);
            // Per-chunk kernel durations as a Chrome counter track: the
            // timeline shows each chunk's cost at the instant it retired.
            for &e in &kernel_events {
                if let Ok(p) = gpu.event_profile(e) {
                    self.tracer.counter(
                        run_track,
                        KERNEL_CHUNK_METRIC,
                        p.end_ns,
                        p.duration_ns() as f64,
                    );
                }
            }
        }
        let gamma = match &mut sink {
            Sink::Gamma(gamma) => gamma.take(),
            Sink::TopK { .. } => None,
        };
        let run = RunReport {
            gamma,
            timing,
            word_ops,
            kernel_bytes,
            passes: kernel_events.len(),
            config: cfg,
            kernel_word_ops_per_sec: word_ops as f64 / (kernel_ns.max(1) as f64 * 1e-9),
            verify_report,
            recovery,
            metrics,
        };
        Ok((run, sink))
    }
}

/// Where the tile-pass loop sends each chunk's `γ` block; the entry point
/// picks it. Its results stay `None` in timing-only mode.
enum Sink {
    /// Scatter each block into the full `γ`.
    Gamma(Option<CountMatrix>),
    /// Reduce each block to every query's `k` best on the device, read back
    /// only the winners and merge them per query.
    TopK {
        k: usize,
        lists: Option<Vec<Vec<Match>>>,
        readback_bytes: u64,
    },
}

impl Sink {
    /// Device words the sink's own kernel writes per query row, which the
    /// plan budgets in each slot: the top-k winners are `k` (profile,
    /// differences) pairs.
    fn words_per_row(&self) -> usize {
        match self {
            Sink::Gamma(_) => 0,
            Sink::TopK { k, .. } => 2 * k,
        }
    }

    /// Takes one chunk's `γ` block, row by row (a CPU-fallback chunk, or
    /// the gamma sink's readback).
    fn absorb_rows<'r>(&mut self, mc: Chunk, nc: Chunk, rows: impl Iterator<Item = &'r [u32]>) {
        match self {
            Sink::Gamma(Some(g)) => {
                for (r, row) in rows.enumerate() {
                    g.row_mut(mc.lo + r)[nc.lo..nc.hi].copy_from_slice(row);
                }
            }
            Sink::TopK {
                k,
                lists: Some(lists),
                ..
            } => {
                for (r, row) in rows.enumerate() {
                    merge_topk(&mut lists[mc.lo + r], topk_of_row(row, nc.lo, *k), *k);
                }
            }
            _ => {}
        }
    }

    /// Takes one chunk's device readback: the `γ` block itself, or each
    /// query's winners as `(profile, differences)` pairs.
    fn absorb_readback(&mut self, mc: Chunk, nc: Chunk, words: &[u32]) {
        match self {
            Sink::Gamma(_) => self.absorb_rows(mc, nc, words.chunks_exact(nc.len())),
            Sink::TopK {
                k,
                lists: Some(lists),
                ..
            } => {
                for (r, pairs) in words.chunks_exact(2 * *k).enumerate() {
                    let winners =
                        pairs
                            .chunks_exact(2)
                            .filter(|p| p[0] != u32::MAX)
                            .map(|p| Match {
                                profile: p[0] as usize,
                                differences: p[1],
                            });
                    merge_topk(&mut lists[mc.lo + r], winners, *k);
                }
            }
            Sink::TopK { lists: None, .. } => {}
        }
    }
}

/// The top-k reduction kernel's functional body: each of the `m` rows of
/// the `n`-column `γ` block keeps its `k` best as `(profile, differences)`
/// pairs, padded with `u32::MAX` sentinels.
fn reduce_topk(gamma: &[u32], out: &mut [u32], m: usize, n: usize, base: usize, k: usize) {
    for (row, pairs) in gamma
        .chunks_exact(n)
        .zip(out.chunks_exact_mut(2 * k))
        .take(m)
    {
        pairs.fill(u32::MAX);
        for (pair, best) in pairs.chunks_exact_mut(2).zip(topk_of_row(row, base, k)) {
            pair[0] = best.profile as u32;
            pair[1] = best.differences;
        }
    }
}

/// The run's two queues, indexed by lane.
const LANES: [&str; 2] = ["transfer", "compute"];
const XFER: usize = 0;
const COMP: usize = 1;

/// The simulated device of one run with its [`ExecMode`] resolved: each
/// command kind picks its functional or virtual form here, once.
struct Device {
    gpu: Gpu,
    full: bool,
}

impl Device {
    fn buffer(&self, words: usize) -> Result<BufferId, SimError> {
        if self.full {
            self.gpu.create_buffer(words.max(1))
        } else {
            self.gpu.create_virtual_buffer(words.max(1))
        }
    }

    /// Uploads the staged words, or as many virtual ones.
    fn write(
        &self,
        q: QueueId,
        buf: BufferId,
        stage: &[u32],
        words: usize,
        deps: &[EventId],
    ) -> Result<EventId, SimError> {
        if self.full {
            self.gpu.enqueue_write(q, buf, 0, stage, deps)
        } else {
            self.gpu.enqueue_virtual_write(q, buf, 0, words, deps)
        }
    }

    /// Launches a kernel that runs `func` on the buffers, or only its
    /// timing.
    fn kernel(
        &self,
        q: QueueId,
        cost: &KernelCost,
        reads: &[BufferId],
        write: BufferId,
        deps: &[EventId],
        func: impl FnOnce(&[&[u32]], &mut [u32]),
    ) -> Result<EventId, SimError> {
        if self.full {
            self.gpu.enqueue_kernel(q, cost, reads, write, deps, func)
        } else {
            self.gpu
                .enqueue_kernel_timed_on(q, cost, reads, write, deps)
        }
    }

    /// Reads `words` words back into `out`, or only their timing.
    fn read(
        &self,
        q: QueueId,
        buf: BufferId,
        out: &mut Vec<u32>,
        words: usize,
        deps: &[EventId],
        blocking: bool,
    ) -> Result<EventId, SimError> {
        if self.full {
            out.resize(words, 0);
            self.gpu.enqueue_read(q, buf, 0, out, deps, blocking)
        } else {
            self.gpu.enqueue_virtual_read(q, buf, 0, words, deps)
        }
    }
}

/// The run's queues, the recovering schedule's state when a fault plan is
/// armed, and the metrics the run records as it goes.
struct Lanes {
    queues: [QueueId; 2],
    recovering: Option<Recovering>,
    metrics: Metrics,
}

/// What the recovering schedule carries through a run.
struct Recovering {
    summary: RecoverySummary,
    /// One circuit breaker per lane.
    health: [QueueHealth; 2],
}

impl Lanes {
    /// Enqueues one command through `f` on `lane`'s queue: once on the
    /// pipelined schedule, with bounded retry on the recovering one.
    /// Transient faults (transfer timeout, kernel launch failure) are
    /// retried with exponential virtual-time backoff charged to the host
    /// clock; repeated failures trip the lane's circuit breaker, which
    /// quarantines the queue and enqueues on a fresh replacement.
    /// Non-transient errors (device loss, hazards, planning bugs) surface
    /// immediately.
    fn enqueue<T>(
        &mut self,
        gpu: &Gpu,
        lane: usize,
        mut f: impl FnMut(QueueId) -> Result<T, SimError>,
    ) -> Result<T, EngineError> {
        let queue = &mut self.queues[lane];
        let Some(rec) = &mut self.recovering else {
            return Ok(f(*queue)?);
        };
        let mut attempt = 0u32;
        loop {
            match f(*queue) {
                Ok(v) => {
                    rec.health[lane].ok();
                    return Ok(v);
                }
                Err(SimError::DeviceFault(fault)) if fault.kind.is_transient() => {
                    if rec.health[lane].fail() {
                        rec.summary.quarantined_queues += 1;
                        *queue = gpu.create_queue_labeled(LANES[lane]);
                        rec.health[lane] = QueueHealth::default();
                    }
                    if attempt >= MAX_RETRIES {
                        return Err(EngineError::Device(SimError::DeviceFault(fault)));
                    }
                    let back = backoff_for(attempt);
                    let back_start = gpu.now_ns();
                    gpu.advance_host_ns(back);
                    if gpu.tracer().is_enabled() {
                        // On the device's host track so the backoff gap is
                        // visible inline — and, when the engine tracer
                        // carries a QueryCtx, attributed to its query.
                        gpu.tracer().span_with(
                            gpu.host_track(),
                            "retry",
                            format!("retry {}: {:?}", attempt + 1, fault.kind),
                            back_start,
                            back_start + back,
                            vec![
                                ("attempt", (attempt + 1).into()),
                                ("backoff_ns", back.into()),
                                ("queue", LANES[lane].into()),
                            ],
                        );
                    }
                    rec.summary.backoff_ns += back;
                    // Single delays show whether the backoff escalated or
                    // every fault cleared on its first retry.
                    self.metrics
                        .record("engine.recovery.backoff_delay_ns", back);
                    rec.summary.retries += 1;
                    match fault.kind {
                        FaultKind::TransferTimeout => rec.summary.retries_timeout += 1,
                        _ => rec.summary.retries_launch += 1,
                    }
                    attempt += 1;
                }
                Err(e) => return Err(EngineError::Device(e)),
            }
        }
    }
}

/// One run's tile pass: the plan, its buffers, the pooled host staging and
/// everything the report sums.
struct Pass<'a> {
    spec: &'a DeviceSpec,
    dev: Device,
    lanes: Lanes,
    sink: Sink,
    a: &'a BitMatrix<u64>,
    b: &'a BitMatrix<u64>,
    op: CompareOp,
    cfg: KernelConfig,
    plan: TilePlan,
    lowering: Lowering,
    /// The fault plan's seeded ordering bug: kernels skip their wait on
    /// the B upload, which the race detector must catch.
    drop_b_dep: bool,
    a_buf: BufferId,
    /// Per slot: the B and C buffers, and the top-k sink's winners.
    b_bufs: Vec<BufferId>,
    c_bufs: Vec<BufferId>,
    t_bufs: Vec<BufferId>,
    /// Pooled host staging, one buffer per direction, reused by every
    /// chunk (the simulated transfers copy synchronously).
    up: Vec<u32>,
    down: Vec<u32>,
    pack_ns: u64,
    word_ops: u128,
    kernel_bytes: u64,
    kernel_events: Vec<EventId>,
    in_events: Vec<EventId>,
    out_events: Vec<EventId>,
    ev_a: Option<EventId>,
    ev_b: Option<EventId>,
    /// Per slot: the last comparison kernel, and (pipelined) the last
    /// readback.
    last_kernel: Vec<Option<EventId>>,
    last_read: Vec<Option<EventId>>,
}

impl Pass<'_> {
    /// Runs chunk `(mi, ni)`: its uploads, its comparison kernel and the
    /// sink's commands, then hands the readback to the sink. A recovering
    /// run checkpoints the chunk once it is in the sink.
    fn chunk(&mut self, mi: usize, ni: usize) -> Result<(), EngineError> {
        let (mc, nc) = (self.plan.m_chunks[mi], self.plan.n_chunks[ni]);
        let (m_len, n_len, k) = (mc.len(), nc.len(), self.plan.k_words);
        let slot = ni % self.c_bufs.len();
        let recovering = self.lanes.recovering.is_some();
        if ni == 0 {
            // The recovering A upload waits for the last kernel; a
            // pipelined one is ordered behind it by the readback before it
            // on the in-order transfer queue.
            let deps: Vec<EventId> = if recovering {
                self.last_kernel[0].into_iter().collect()
            } else {
                Vec::new()
            };
            self.ev_a = Some(self.upload(self.a, mc, self.a_buf, &deps)?);
        }
        // Pipelined, B chunks after the first were prefetched.
        if ni == 0 || recovering {
            self.upload_b(ni)?;
        }
        let kplan = KernelPlan::with_lowering(
            self.spec,
            &self.cfg,
            self.op,
            m_len,
            n_len,
            k,
            self.lowering,
        );
        let mut deps = vec![self.ev_a.expect("A chunk uploaded before its kernels")];
        if !self.drop_b_dep {
            deps.push(self.ev_b.expect("B chunk uploaded before its kernel"));
        }
        // The slot's output buffers must drain before they are rewritten.
        deps.extend(self.last_read[slot]);
        let memo = if kplan.memo_hit {
            TIMING_CACHE_HITS_METRIC
        } else {
            TIMING_CACHE_MISSES_METRIC
        };
        self.lanes.metrics.add(memo, 1);
        let (op, a_buf, b_buf, c_buf) = (self.op, self.a_buf, self.b_bufs[slot], self.c_bufs[slot]);
        // The kernel's function runs only in Full mode, and only once its
        // launch succeeds.
        let mut gemm = None;
        let ev_k = self.lanes.enqueue(&self.dev.gpu, COMP, |q| {
            self.dev
                .kernel(q, &kplan.cost(), &[a_buf, b_buf], c_buf, &deps, |r, out| {
                    gemm = Some(execute_gamma(op, r[0], r[1], out, m_len, n_len, k));
                })
        })?;
        if let Some(stats) = gemm {
            stats.record(&mut self.lanes.metrics);
        }
        self.word_ops += kplan.word_ops;
        self.kernel_bytes += kplan.traffic.total();
        self.kernel_events.push(ev_k);
        self.last_kernel[slot] = Some(ev_k);
        // Software pipelining (§VI-A-1): the next B chunk is staged and
        // uploaded while this kernel occupies the compute engine. With one
        // slot it waits for this kernel, which collapses back to serial
        // timing. Functionally the early write is safe: kernels execute at
        // enqueue, so this chunk has already consumed its input words.
        if !recovering && ni + 1 < self.plan.n_chunks.len() {
            self.upload_b(ni + 1)?;
        }

        let (buf, words, dep) = match &mut self.sink {
            Sink::Gamma(_) => (c_buf, m_len * n_len, ev_k),
            Sink::TopK {
                k: top,
                readback_bytes,
                ..
            } => {
                // The reduction streams the γ block once from global memory
                // and emits the block's m × k winners.
                let top = *top;
                let cost = reduction_cost(self.spec, m_len, n_len, (m_len * n_len * 4) as u64);
                let t_buf = self.t_bufs[slot];
                let ev_r = self.lanes.enqueue(&self.dev.gpu, COMP, |q| {
                    self.dev
                        .kernel(q, &cost, &[c_buf], t_buf, &[ev_k], |r, out| {
                            reduce_topk(r[0], out, m_len, n_len, nc.lo, top)
                        })
                })?;
                self.kernel_bytes += cost.traffic.total();
                self.kernel_events.push(ev_r);
                *readback_bytes += (m_len * top * 8) as u64;
                (t_buf, m_len * top * 2, ev_r)
            }
        };
        let ev_read = self.readback(buf, words, dep)?;
        if !recovering {
            self.last_read[slot] = Some(ev_read);
        }
        self.sink.absorb_readback(mc, nc, &self.down);
        if let Some(rec) = &mut self.lanes.recovering {
            rec.summary.verified_chunks += 1;
        }
        Ok(())
    }

    /// Packs rows `rows` of `src` on the host and uploads them into `buf`
    /// once `deps` complete.
    fn upload(
        &mut self,
        src: &BitMatrix<u64>,
        rows: Chunk,
        buf: BufferId,
        deps: &[EventId],
    ) -> Result<EventId, EngineError> {
        let words = rows.len() * self.plan.k_words;
        let bytes = (words * 4) as u64;
        self.pack_ns += self.spec.transfer.pack_ns(bytes);
        self.dev.gpu.host_pack(bytes);
        if self.dev.full {
            device_words_into(src, rows.lo, rows.hi, &mut self.up);
        }
        let ev = self.lanes.enqueue(&self.dev.gpu, XFER, |q| {
            self.dev.write(q, buf, &self.up, words, deps)
        })?;
        self.in_events.push(ev);
        Ok(ev)
    }

    /// Uploads B chunk `ni` into its slot once the slot's last comparison
    /// kernel is done reading it.
    fn upload_b(&mut self, ni: usize) -> Result<(), EngineError> {
        let slot = ni % self.b_bufs.len();
        let deps: Vec<EventId> = self.last_kernel[slot].into_iter().collect();
        self.ev_b = Some(self.upload(self.b, self.plan.n_chunks[ni], self.b_bufs[slot], &deps)?);
        Ok(())
    }

    /// Reads `words` words of `buf` back into the staging buffer once `dep`
    /// completes. A recovering run blocks on the read and, in Full mode,
    /// verifies it against a device-side checksum: the device sees the
    /// uncorrupted buffer, so a mismatch pinpoints link corruption and the
    /// chunk is simply re-read. This is the only defense against the
    /// *silent* fault class.
    fn readback(
        &mut self,
        buf: BufferId,
        words: usize,
        dep: EventId,
    ) -> Result<EventId, EngineError> {
        let recovering = self.lanes.recovering.is_some();
        let mut rereads = 0u32;
        loop {
            let ev = self.lanes.enqueue(&self.dev.gpu, XFER, |q| {
                self.dev
                    .read(q, buf, &mut self.down, words, &[dep], recovering)
            })?;
            self.out_events.push(ev);
            if !(self.dev.full && recovering) {
                return Ok(ev);
            }
            let (device_sum, ev_sum) = self.lanes.enqueue(&self.dev.gpu, XFER, |q| {
                self.dev.gpu.enqueue_checksum_read(q, buf, 0, words, &[dep])
            })?;
            self.out_events.push(ev_sum);
            if device_sum == checksum_words(&self.down) {
                return Ok(ev);
            }
            let rec = self.lanes.recovering.as_mut().expect("checksummed above");
            rec.summary.corruption_detected += 1;
            rereads += 1;
            if rereads > MAX_RETRIES {
                return Err(EngineError::Device(SimError::DeviceFault(DeviceFault {
                    kind: FaultKind::ReadCorruption,
                    op: FaultOp::Read,
                    command_index: self.dev.gpu.command_log().commands.len() as u64,
                })));
            }
        }
    }

    /// Device loss at chunk `resume`: finishes the remaining chunks on the
    /// CPU engine in Full mode, or surfaces the typed fault in timing-only
    /// mode. The checkpointed prefix is never recomputed. Returns the
    /// modeled CPU time, charged to the host clock.
    fn fall_back(&mut self, resume: usize, err: EngineError) -> Result<u64, EngineError> {
        let gpu = &self.dev.gpu;
        let tracer = gpu.tracer();
        let rec = self
            .lanes
            .recovering
            .as_mut()
            .expect("only an armed fault plan loses the device");
        rec.summary.device_lost = true;
        rec.summary.resumed_from_chunk = Some(resume);
        if tracer.is_enabled() {
            tracer.span_with(
                gpu.host_track(),
                "fault",
                "device lost",
                gpu.now_ns(),
                gpu.now_ns(),
                vec![("resume_chunk", resume.into())],
            );
        }
        if !self.dev.full {
            return Err(err);
        }
        let (cpu, model) = (CpuEngine::new(), CpuModel::ivy_bridge_workstation());
        let kind = word_op_kind(self.op);
        let n_chunks = self.plan.n_chunks.len();
        let mut ns = 0f64;
        for ci in resume..self.plan.passes() {
            let (mc, nc) = (
                self.plan.m_chunks[ci / n_chunks],
                self.plan.n_chunks[ci % n_chunks],
            );
            self.down.resize(mc.len() * nc.len(), 0);
            let stats = cpu.gamma_into(
                &self.a.row_slice(mc.lo, mc.hi),
                &self.b.row_slice(nc.lo, nc.hi),
                self.op,
                &mut self.down,
            );
            stats.record(&mut self.lanes.metrics);
            self.sink
                .absorb_rows(mc, nc, self.down.chunks_exact(nc.len()));
            ns += model.time_ns(kind, mc.len(), nc.len(), self.a.words_per_row());
            rec.summary.cpu_fallback_chunks += 1;
        }
        let fallback_ns = ns.ceil() as u64;
        let start = gpu.now_ns();
        gpu.advance_host_ns(fallback_ns);
        if tracer.is_enabled() {
            tracer.span_with(
                gpu.host_track(),
                "fallback",
                "cpu fallback",
                start,
                start + fallback_ns,
                vec![("chunks", rec.summary.cpu_fallback_chunks.into())],
            );
        }
        Ok(fallback_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snp_bitmat::reference_gamma;
    use snp_gpu_model::devices;

    fn matrix(rows: usize, cols: usize, salt: usize) -> BitMatrix<u64> {
        BitMatrix::from_fn(rows, cols, |r, c| {
            (r.wrapping_mul(0x9E37_79B9) ^ c.wrapping_mul(salt + 0x85EB_CA6B)) % 7 < 3
        })
    }

    #[test]
    fn device_words_round_trip_through_host_rows() {
        // Host rows ending mid-word, and device rows of an odd word count,
        // whose last host word gets a zero high half.
        for cols in [1, 31, 32, 33, 64, 65, 95, 130, 500] {
            let m = matrix(5, cols, cols);
            let mut stage = Vec::new();
            device_words_into(&m, 1, 4, &mut stage);
            let k = 2 * m.words_per_row();
            assert_eq!(stage.len(), 3 * k);
            let back = host_rows(&stage, 3, k);
            assert_eq!(back.words(), m.row_slice(1, 4).words(), "{cols} bits");
            let m32: BitMatrix<u32> = m.convert();
            let odd = host_rows(m32.words(), 5, m32.words_per_row());
            assert_eq!(odd.words(), m.words(), "{cols} bits from u32 rows");
        }
    }

    #[test]
    fn device_words_into_reuses_allocation() {
        let m = matrix(8, 500, 12);
        let mut stage = Vec::new();
        device_words_into(&m, 0, 8, &mut stage);
        let cap = stage.capacity();
        // Smaller refill must reuse the grown allocation.
        device_words_into(&m, 2, 5, &mut stage);
        assert_eq!(stage.capacity(), cap, "staging buffer must not reallocate");
        let back = host_rows(&stage, 3, 2 * m.words_per_row());
        assert_eq!(back.words(), m.row_slice(2, 5).words());
    }

    #[test]
    fn full_run_matches_reference_all_algorithms() {
        let a = matrix(70, 500, 1);
        let b = matrix(130, 500, 2);
        let want_and = reference_gamma(&a, &b, CompareOp::And);
        let want_xor = reference_gamma(&a, &b, CompareOp::Xor);
        let want_andnot = reference_gamma(&a, &b, CompareOp::AndNot);
        for dev in [devices::gtx_980(), devices::titan_v(), devices::vega_64()] {
            let eng = GpuEngine::new(dev.clone());
            let ld = eng
                .compare(&a, &b, Algorithm::LinkageDisequilibrium)
                .unwrap();
            assert_eq!(
                ld.gamma.unwrap().first_mismatch(&want_and),
                None,
                "{} LD",
                dev.name
            );
            let id = eng.identity_search(&a, &b).unwrap();
            assert_eq!(
                id.gamma.unwrap().first_mismatch(&want_xor),
                None,
                "{} ID",
                dev.name
            );
            let mix = eng.mixture_analysis(&a, &b).unwrap();
            assert_eq!(
                mix.gamma.unwrap().first_mismatch(&want_andnot),
                None,
                "{} MIX",
                dev.name
            );
        }
    }

    #[test]
    fn prenegation_strategy_gives_identical_results() {
        let refs = matrix(40, 256, 3);
        let mixes = matrix(24, 256, 4);
        let dev = devices::vega_64();
        let direct = GpuEngine::new(dev.clone())
            .with_options(EngineOptions {
                mixture: MixtureStrategy::Direct,
                ..Default::default()
            })
            .mixture_analysis(&refs, &mixes)
            .unwrap();
        let pre = GpuEngine::new(dev)
            .with_options(EngineOptions {
                mixture: MixtureStrategy::PreNegate,
                ..Default::default()
            })
            .mixture_analysis(&refs, &mixes)
            .unwrap();
        assert_eq!(
            direct
                .gamma
                .unwrap()
                .first_mismatch(pre.gamma.as_ref().unwrap()),
            None
        );
    }

    #[test]
    fn timing_only_matches_full_timing() {
        let a = matrix(64, 2048, 5);
        let b = matrix(256, 2048, 6);
        let dev = devices::gtx_980();
        let full = GpuEngine::new(dev.clone()).identity_search(&a, &b).unwrap();
        let timed = GpuEngine::new(dev)
            .with_options(EngineOptions {
                mode: ExecMode::TimingOnly,
                ..Default::default()
            })
            .identity_search(&a, &b)
            .unwrap();
        assert!(timed.gamma.is_none());
        assert_eq!(full.timing.end_to_end_ns, timed.timing.end_to_end_ns);
        assert_eq!(full.timing.kernel_ns, timed.timing.kernel_ns);
        assert_eq!(full.passes, timed.passes);
    }

    #[test]
    fn end_to_end_includes_init_and_exceeds_kernel() {
        let a = matrix(40, 1024, 7);
        let dev = devices::titan_v();
        let r = GpuEngine::new(dev.clone()).ld_self(&a).unwrap();
        assert_eq!(r.timing.init_ns, dev.transfer.runtime_init_ns);
        assert!(r.timing.end_to_end_ns >= r.timing.init_ns + r.timing.kernel_ns);
        assert!(r.word_ops > 0 && r.kernel_word_ops_per_sec > 0.0);
    }

    #[test]
    fn multi_pass_problems_assemble_correctly() {
        // Force chunking with a fake tiny-memory device.
        let mut dev = devices::gtx_980();
        dev.name = "GTX tiny".into(); // avoid Table II presets
        dev.max_alloc_bytes = 1 << 17; // 128 KiB
        dev.global_mem_bytes = 1 << 20;
        let a = matrix(48, 700, 8);
        let b = matrix(900, 700, 9);
        let eng = GpuEngine::new(dev);
        let r = eng.identity_search(&a, &b).unwrap();
        assert!(
            r.passes > 1,
            "expected chunked execution, got {} passes",
            r.passes
        );
        let want = reference_gamma(&a, &b, CompareOp::Xor);
        assert_eq!(r.gamma.unwrap().first_mismatch(&want), None);
    }

    #[test]
    fn run_metrics_count_the_parallel_stats_of_its_passes() {
        // The multi-pass run above: one host GEMM per chunk, each counted
        // once on the run's metrics, exactly as its `ParallelStats` read.
        let mut dev = devices::gtx_980();
        dev.name = "GTX tiny".into();
        dev.max_alloc_bytes = 1 << 17;
        dev.global_mem_bytes = 1 << 20;
        let a = matrix(48, 700, 8);
        let b = matrix(900, 700, 9);
        let run = GpuEngine::new(dev.clone()).identity_search(&a, &b).unwrap();
        let shape = ProblemShape {
            m: a.rows(),
            n: b.rows(),
            k_words: 2 * a.words_per_row(),
        };
        let cfg = config_for(&dev, Algorithm::IdentitySearch, shape);
        let plan = plan_passes(&dev, &cfg, shape.m, shape.n, shape.k_words, 0, true).unwrap();
        let mut want = Metrics::new();
        for mc in &plan.m_chunks {
            for nc in &plan.n_chunks {
                let mut c = vec![0; mc.len() * nc.len()];
                let (a, b) = (a.row_slice(mc.lo, mc.hi), b.row_slice(nc.lo, nc.hi));
                CpuEngine::new()
                    .gamma_into(&a, &b, CompareOp::Xor, &mut c)
                    .record(&mut want);
            }
        }
        assert!(run.passes > 1);
        assert_eq!(want.counter("cpu.parallel.runs"), Some(run.passes as u64));
        for name in [
            "cpu.parallel.runs",
            "cpu.parallel.tasks",
            "cpu.parallel.a_packs",
        ] {
            assert_eq!(run.metrics.counter(name), want.counter(name), "{name}");
        }
    }

    #[test]
    fn timing_reconciles_phase_sums_with_end_to_end() {
        // Real runs across shapes and modes must satisfy every invariant of
        // Timing::validate: per-resource busy times fit in the post-init
        // window, and the window is covered by the union of phases.
        let a = matrix(64, 2048, 21);
        let b = matrix(512, 2048, 22);
        for dev in [devices::gtx_980(), devices::titan_v()] {
            for double_buffer in [false, true] {
                let r = GpuEngine::new(dev.clone())
                    .with_options(EngineOptions {
                        mode: ExecMode::TimingOnly,
                        double_buffer,
                        ..Default::default()
                    })
                    .identity_search(&a, &b)
                    .unwrap();
                r.timing.validate().unwrap_or_else(|e| {
                    panic!("{} (db={double_buffer}): {e}", dev.name);
                });
                assert!(r.timing.busy_ns() > 0);
            }
        }
    }

    #[test]
    fn timing_validate_rejects_inconsistent_totals() {
        let good = Timing {
            init_ns: 100,
            pack_ns: 10,
            kernel_ns: 50,
            transfer_in_ns: 20,
            transfer_out_ns: 10,
            recovery_ns: 0,
            end_to_end_ns: 180,
        };
        good.validate().unwrap();
        // Recovery time participates in the union bound: idle backoff is
        // attributable time.
        let mut recovered = good;
        recovered.end_to_end_ns = 220;
        assert!(recovered.validate().is_err(), "40ns unattributed");
        recovered.recovery_ns = 40;
        recovered.validate().unwrap();
        // Kernel time cannot exceed the post-init window.
        let mut bad = good;
        bad.kernel_ns = 1_000;
        assert!(bad.validate().is_err());
        // Transfers share one link: their sum cannot exceed the window.
        bad = good;
        bad.transfer_in_ns = 60;
        bad.transfer_out_ns = 60;
        assert!(bad.validate().is_err());
        // The window cannot exceed the union of all phases.
        bad = good;
        bad.end_to_end_ns = 10_000;
        assert!(bad.validate().is_err());
        // End before init is nonsense.
        bad = good;
        bad.end_to_end_ns = 50;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn run_shape_matches_materialized_timing_only_run() {
        let a = matrix(64, 2048, 5);
        let b = matrix(256, 2048, 6);
        let dev = devices::gtx_980();
        let opts = EngineOptions {
            mode: ExecMode::TimingOnly,
            ..Default::default()
        };
        let timed = GpuEngine::new(dev.clone())
            .with_options(opts)
            .identity_search(&a, &b)
            .unwrap();
        let shape = ProblemShape {
            m: a.rows(),
            n: b.rows(),
            k_words: 2 * a.words_per_row(),
        };
        let shaped = GpuEngine::new(dev)
            .with_options(opts)
            .run_shape(shape, Algorithm::IdentitySearch)
            .unwrap();
        assert_eq!(shaped.timing.end_to_end_ns, timed.timing.end_to_end_ns);
        assert_eq!(shaped.passes, timed.passes);
        assert!(shaped.gamma.is_none());
    }

    #[test]
    fn verifier_passes_clean_stream_and_catches_seeded_hazard() {
        // Same tiny-memory shape as double_buffer_improves_end_to_end: one
        // m-chunk, several n-chunks, double-buffered across two B slots.
        let mut dev = devices::gtx_980();
        dev.name = "GTX tiny".into(); // avoid Table II presets
        dev.max_alloc_bytes = 1 << 17;
        dev.global_mem_bytes = 1 << 20;
        let a = matrix(8, 320, 10);
        let b = matrix(12288, 320, 11);
        let opts = EngineOptions {
            mode: ExecMode::TimingOnly,
            verify: true,
            ..Default::default()
        };
        let clean = GpuEngine::new(dev.clone())
            .with_options(opts)
            .identity_search(&a, &b)
            .unwrap();
        let report = clean.verify_report.expect("verification ran");
        assert!(!report.has_errors());
        assert!(
            report.count(snp_verify::Severity::Warning) == 0,
            "{}",
            report.render_text("clean stream")
        );

        // Mutation: drop the B-upload edge from each kernel's wait list,
        // seeded through the fault plan's engine-fault entry. The upload
        // lands on the transfer queue, the kernel on the compute queue;
        // without the event there is NO path ordering them.
        let err = GpuEngine::new(dev)
            .with_options(opts)
            .with_fault_plan(FaultPlan::new(
                0,
                snp_faults::FaultProfile {
                    drop_kernel_b_dep: true,
                    ..snp_faults::FaultProfile::none()
                },
            ))
            .identity_search(&a, &b)
            .unwrap_err();
        match err {
            EngineError::Device(snp_gpu_sim::SimError::Hazard(report)) => {
                assert!(report.contains("V001-RAW"), "unexpected report: {report}");
            }
            other => panic!("expected a hazard, got: {other}"),
        }
    }

    #[test]
    fn every_run_traces_one_run_span_and_honours_the_mode() {
        // Both sinks on both schedules: one `run` span, one kernel-time
        // sample per launch, and results exactly when the mode is Full —
        // the recovering top-k included.
        let a = matrix(8, 320, 12);
        let b = matrix(900, 320, 13);
        let armed = FaultPlan::new(3, snp_faults::FaultProfile::none());
        for (mode, faults) in [
            (ExecMode::Full, None),
            (ExecMode::TimingOnly, None),
            (ExecMode::Full, Some(armed.clone())),
            (ExecMode::TimingOnly, Some(armed)),
        ] {
            for topk in [false, true] {
                let what = format!("{mode:?}, fault plan {}, top-k {topk}", faults.is_some());
                let tracer = Tracer::enabled();
                let mut eng = GpuEngine::new(devices::gtx_980())
                    .with_options(EngineOptions {
                        mode,
                        ..Default::default()
                    })
                    .with_tracer(tracer.clone());
                if let Some(plan) = faults.clone() {
                    eng = eng.with_fault_plan(plan);
                }
                let (passes, results, recovery, metrics) = if topk {
                    let r = eng.identity_search_topk(&a, &b, 4).unwrap();
                    (
                        r.passes,
                        r.matches.is_some(),
                        r.recovery.is_some(),
                        r.metrics,
                    )
                } else {
                    let r = eng.identity_search(&a, &b).unwrap();
                    (r.passes, r.gamma.is_some(), r.recovery.is_some(), r.metrics)
                };
                assert_eq!(results, mode == ExecMode::Full, "{what}");
                assert_eq!(recovery, faults.is_some(), "{what}");
                let trace = tracer.snapshot().unwrap();
                assert_eq!(trace.events_in_cat("run").count(), 1, "{what}");
                let samples = |name: &str| trace.counters.iter().filter(|c| c.name == name).count();
                assert_eq!(samples("sim.profile.kernel_chunk_ns"), passes, "{what}");
                // The run's metrics hold the same samples, one memo lookup
                // per comparison kernel, and a host GEMM for each exactly
                // when the mode is Full.
                let chunk_ns = metrics.histogram("sim.profile.kernel_chunk_ns").unwrap();
                assert_eq!(chunk_ns.count(), passes as u64, "{what}");
                let comparisons = if topk { passes / 2 } else { passes } as u64;
                let lookups = ["sim.timing_cache.hits", "sim.timing_cache.misses"]
                    .map(|name| metrics.counter(name).unwrap_or(0));
                assert_eq!(lookups.iter().sum::<u64>(), comparisons, "{what}");
                let gemms = (mode == ExecMode::Full).then_some(comparisons);
                assert_eq!(metrics.counter("cpu.parallel.runs"), gemms, "{what}");
            }
        }
    }

    #[test]
    fn double_buffer_improves_end_to_end() {
        // A tiny-memory device forces many n-chunks (one m-chunk, four
        // n-chunks for this shape), so the pipelined B uploads have kernels
        // to hide behind.
        let mut dev = devices::gtx_980();
        dev.name = "GTX tiny".into(); // avoid Table II presets
        dev.max_alloc_bytes = 1 << 17;
        dev.global_mem_bytes = 1 << 20;
        let a = matrix(8, 320, 10);
        let b = matrix(12288, 320, 11);
        let with = GpuEngine::new(dev.clone())
            .with_options(EngineOptions {
                mode: ExecMode::TimingOnly,
                double_buffer: true,
                ..Default::default()
            })
            .identity_search(&a, &b)
            .unwrap();
        let without = GpuEngine::new(dev)
            .with_options(EngineOptions {
                mode: ExecMode::TimingOnly,
                double_buffer: false,
                ..Default::default()
            })
            .identity_search(&a, &b)
            .unwrap();
        assert!(
            with.timing.end_to_end_ns < without.timing.end_to_end_ns,
            "pipelined B uploads must overlap compute: {} vs {}",
            with.timing.end_to_end_ns,
            without.timing.end_to_end_ns
        );
    }
}
