//! The end-to-end engine: host orchestration of the portable framework.
//!
//! Implements the paper's measured pipeline (§VI-A-1): open the device (the
//! OpenCL initialization cost lands on the host clock), pack the bit
//! matrices into transfer buffers, upload, launch the configured kernel
//! over the pass plan, and read results back — with double buffering so
//! data transfer and host packing overlap computation.
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
use snp_gpu_sim::host::{BufferId, CostScale, EventId, Gpu, QueueId, SimError};
use snp_gpu_sim::{timing_cache_stats, KernelProfile};
use snp_trace::{TimeDomain, Tracer};

use crate::autoconf::{compare_op, config_for, word_op_kind, MixtureStrategy};
use crate::cpu_model::CpuModel;
use crate::kernel::{execute_gamma, execute_gamma_mma, KernelPlan, Lowering};
use crate::recovery::{metrics, QueueHealth, RecoveryPolicy, RecoverySummary};
use crate::tiling::{plan_passes, PlanError, TilePlan};

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
    /// Retry/checkpoint/fallback tunables. Inert unless a
    /// [`FaultPlan`] is armed on the engine via
    /// [`GpuEngine::with_fault_plan`] — the fault-free fast path never
    /// consults them.
    pub recovery: RecoveryPolicy,
    /// Collect per-launch hardware-counter profiles
    /// ([`RunReport::kernel_profiles`]). Off by default: profiles are
    /// cheap to gather (the simulator computes the counters anyway) but
    /// cloning them into the report is pure overhead for callers that only
    /// want timing or results.
    pub profile: bool,
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
            recovery: RecoveryPolicy::default(),
            profile: false,
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
    /// Hardware-counter profile of every kernel launch, in issue order
    /// (only when [`EngineOptions::profile`] is set).
    pub kernel_profiles: Option<Vec<KernelProfile>>,
}

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
/// little-endian 32-bit word stream (two device words per host word).
pub fn device_words(m: &BitMatrix<u64>, lo: usize, hi: usize) -> Vec<u32> {
    let mut out = Vec::new();
    device_words_into(m, lo, hi, &mut out);
    out
}

/// [`device_words`] into a caller-owned staging buffer: `out` is cleared and
/// refilled, so its allocation is reused across tile iterations instead of
/// being freed and re-grown once per pass (the simulated writes copy the
/// staging data synchronously, so reuse is safe under double buffering).
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

/// Profiles each kernel event, feeds its duration into the
/// `sim.profile.kernel_chunk_ns` histogram, and returns the summed kernel
/// time — the per-chunk distribution behind the [`Timing::kernel_ns`] total.
pub(crate) fn record_kernel_chunks(gpu: &Gpu, kernel_events: &[EventId]) -> u64 {
    let mut total = 0u64;
    for &e in kernel_events {
        let d = gpu.event_profile(e).map(|p| p.duration_ns()).unwrap_or(0);
        crate::profile::metrics::KERNEL_CHUNK_NS.record(d);
        total += d;
    }
    total
}

/// Collects the per-launch hardware-counter profiles of `kernel_events`
/// when profiling is enabled (`None` otherwise, costing nothing).
fn collect_kernel_profiles(
    enabled: bool,
    gpu: &Gpu,
    kernel_events: &[EventId],
) -> Option<Vec<KernelProfile>> {
    enabled.then(|| {
        kernel_events
            .iter()
            .filter_map(|&e| gpu.kernel_profile(e))
            .collect()
    })
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
    /// routes through the recovering pipeline — sequential, checksum-
    /// verified, chunk-checkpointed (DESIGN.md §10). Without a plan, runs
    /// take the pipelined fast path and no recovery machinery executes.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The armed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// Records every run on `tracer`: a run-level span plus the per-command
    /// device timeline (see [`Gpu::with_tracer`]) and timing-cache counter
    /// samples. The default is a disabled tracer, which costs nothing.
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
        let op = compare_op(algorithm, self.options.mixture);
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
        let k_words = 2 * a.words_per_row();
        let (m, n) = (a.rows(), b_eff.rows());
        let shape = ProblemShape { m, n, k_words };
        let cfg = config_for(&self.spec, algorithm, shape);
        let plan = plan_passes(&self.spec, &cfg, m, n, k_words, self.options.double_buffer)?;
        self.run_plan(a, b_eff, op, &cfg, &plan, algorithm)
    }

    fn run_plan(
        &self,
        a: &BitMatrix<u64>,
        b: &BitMatrix<u64>,
        op: CompareOp,
        cfg: &KernelConfig,
        plan: &TilePlan,
        algorithm: Algorithm,
    ) -> Result<RunReport, EngineError> {
        if let Some(fault_plan) = &self.faults {
            return self.run_plan_recovering(a, b, op, cfg, plan, algorithm, fault_plan.clone());
        }
        let full = self.options.mode == ExecMode::Full;
        let gpu = Gpu::with_tracer(self.spec.clone(), self.tracer.clone());
        gpu.set_cost_scale(self.options.cost_scale);
        let init_ns = gpu.now_ns();
        let run_track = self.tracer.track("engine", TimeDomain::Virtual);
        let run_span =
            self.tracer
                .begin_span(run_track, "run", format!("run: {}", algorithm.name()), 0);
        let cache_before = timing_cache_stats();
        let q_xfer = gpu.create_queue_labeled("transfer");
        let q_comp = gpu.create_queue_labeled("compute");
        let copies = if plan.double_buffered { 2 } else { 1 };
        let k = plan.k_words;

        let mk_buf = |words: usize| -> Result<BufferId, EngineError> {
            Ok(if full {
                gpu.create_buffer(words)?
            } else {
                gpu.create_virtual_buffer(words)?
            })
        };
        let a_buf = mk_buf(plan.a_buffer_words().max(1))?;
        let b_bufs: Vec<BufferId> = (0..copies)
            .map(|_| mk_buf(plan.b_buffer_words().max(1)))
            .collect::<Result<_, _>>()?;
        let c_bufs: Vec<BufferId> = (0..copies)
            .map(|_| mk_buf(plan.c_buffer_words().max(1)))
            .collect::<Result<_, _>>()?;

        let mut gamma = if full {
            Some(CountMatrix::zeros(a.rows(), b.rows()))
        } else {
            None
        };
        // Pooled host-side staging: one allocation per stream (A words,
        // B words, γ readback), reused across every tile iteration rather
        // than allocated per pass. Multi-pass runs issue hundreds of
        // chunk transfers; without pooling each one pays a fresh
        // allocate/free of up to `max_alloc_bytes`.
        let mut a_stage: Vec<u32> = Vec::new();
        let mut b_stage: Vec<u32> = Vec::new();
        let mut c_stage: Vec<u32> = Vec::new();
        let mut pack_ns = 0u64;
        let mut kernel_events: Vec<EventId> = Vec::new();
        let mut in_events: Vec<EventId> = Vec::new();
        let mut out_events: Vec<EventId> = Vec::new();
        let mut last_kernel_on_slot: Vec<Option<EventId>> = vec![None; copies];
        let mut last_read_on_slot: Vec<Option<EventId>> = vec![None; copies];
        let mut word_ops: u128 = 0;
        let mut kernel_cycles_ns = 0f64;

        // Stages and enqueues the B chunk at index `i`. Borrows it needs
        // mutably are threaded as parameters so calls interleave with the
        // rest of the loop body.
        let stage_and_write_b = |i: usize,
                                 b_stage: &mut Vec<u32>,
                                 pack_ns: &mut u64,
                                 last_kernel_on_slot: &[Option<EventId>]|
         -> Result<EventId, EngineError> {
            let nc = &plan.n_chunks[i];
            let slot = i % copies;
            let b_bytes = (nc.len() * k * 4) as u64;
            *pack_ns += self.spec.transfer.pack_ns(b_bytes);
            gpu.host_pack(b_bytes);
            // The B buffer may still feed an in-flight kernel.
            let mut deps: Vec<EventId> = Vec::new();
            if let Some(ev) = last_kernel_on_slot[slot] {
                deps.push(ev);
            }
            Ok(if full {
                device_words_into(b, nc.lo, nc.hi, b_stage);
                gpu.enqueue_write(q_xfer, b_bufs[slot], 0, b_stage, &deps)?
            } else {
                gpu.enqueue_virtual_write(q_xfer, b_bufs[slot], 0, nc.len() * k, &deps)?
            })
        };

        for mc in &plan.m_chunks {
            // Stage the A chunk.
            let a_bytes = (mc.len() * k * 4) as u64;
            pack_ns += self.spec.transfer.pack_ns(a_bytes);
            gpu.host_pack(a_bytes);
            let ev_a = if full {
                device_words_into(a, mc.lo, mc.hi, &mut a_stage);
                gpu.enqueue_write(q_xfer, a_buf, 0, &a_stage, &[])?
            } else {
                gpu.enqueue_virtual_write(q_xfer, a_buf, 0, mc.len() * k, &[])?
            };
            in_events.push(ev_a);
            if plan.n_chunks.is_empty() {
                continue;
            }

            // Software-pipelined B uploads: chunk i+1 is packed and enqueued
            // *before* chunk i's readback, so with paired slots its only
            // dependency is the kernel of i−1 and the upload overlaps the
            // kernel of i on the link/compute resources (§VI-A-1's double
            // buffering). With a single slot the dependency chain collapses
            // back to fully serial timing. Functionally the early write is
            // safe in both cases: kernels execute at enqueue, so chunk i has
            // already consumed its input words.
            let mut ev_b_pending =
                stage_and_write_b(0, &mut b_stage, &mut pack_ns, &last_kernel_on_slot)?;
            for (i, nc) in plan.n_chunks.iter().enumerate() {
                let slot = i % copies;
                let ev_b = ev_b_pending;
                in_events.push(ev_b);

                let kplan = KernelPlan::new(&self.spec, cfg, op, mc.len(), nc.len(), k);
                word_ops += kplan.word_ops;
                kernel_cycles_ns += kplan.time(&self.spec).total_ns;
                let mut kdeps = vec![ev_a, ev_b];
                if let Some(ev) = last_read_on_slot[slot] {
                    // The C staging buffer must drain before being rewritten.
                    kdeps.push(ev);
                }
                let ev_k = if full {
                    let (m_len, n_len) = (mc.len(), nc.len());
                    // The functional executor follows the plan's lowering:
                    // matrix-unit fragment order on devices that have one,
                    // the scalar row order otherwise (results are identical).
                    let frag = match (kplan.lowering, self.spec.matrix_unit) {
                        (Lowering::Mma, Some(mu)) => Some(mu),
                        _ => None,
                    };
                    gpu.enqueue_kernel(
                        q_comp,
                        &kplan.cost(),
                        &[a_buf, b_bufs[slot]],
                        c_bufs[slot],
                        &kdeps,
                        |reads, out| match frag {
                            Some(mu) => {
                                execute_gamma_mma(&mu, op, reads[0], reads[1], out, m_len, n_len, k)
                            }
                            None => execute_gamma(op, reads[0], reads[1], out, m_len, n_len, k),
                        },
                    )?
                } else {
                    gpu.enqueue_kernel_timed_on(
                        q_comp,
                        &kplan.cost(),
                        &[a_buf, b_bufs[slot]],
                        c_bufs[slot],
                        &kdeps,
                    )?
                };
                kernel_events.push(ev_k);
                last_kernel_on_slot[slot] = Some(ev_k);

                // Prefetch the next B chunk while this kernel occupies the
                // compute engine.
                if i + 1 < plan.n_chunks.len() {
                    ev_b_pending =
                        stage_and_write_b(i + 1, &mut b_stage, &mut pack_ns, &last_kernel_on_slot)?;
                }

                // Read the C chunk back.
                let ev_r = if full {
                    c_stage.resize(mc.len() * nc.len(), 0);
                    let ev =
                        gpu.enqueue_read(q_xfer, c_bufs[slot], 0, &mut c_stage, &[ev_k], false)?;
                    let g = gamma.as_mut().expect("full mode");
                    for (ri, row) in c_stage.chunks_exact(nc.len()).enumerate() {
                        g.row_mut(mc.lo + ri)[nc.lo..nc.hi].copy_from_slice(row);
                    }
                    ev
                } else {
                    gpu.enqueue_virtual_read(q_xfer, c_bufs[slot], 0, mc.len() * nc.len(), &[ev_k])?
                };
                out_events.push(ev_r);
                last_read_on_slot[slot] = Some(ev_r);
            }
        }
        gpu.finish_all();

        let sum = |evs: &[EventId]| -> u64 {
            evs.iter()
                .map(|&e| gpu.event_profile(e).map(|p| p.duration_ns()).unwrap_or(0))
                .sum()
        };
        let kernel_ns = record_kernel_chunks(&gpu, &kernel_events);
        let timing = Timing {
            init_ns,
            pack_ns,
            kernel_ns,
            transfer_in_ns: sum(&in_events),
            transfer_out_ns: sum(&out_events),
            recovery_ns: 0,
            end_to_end_ns: gpu.now_ns(),
        };
        debug_assert!(
            timing.validate().is_ok(),
            "timing reconciliation failed: {} ({timing:?})",
            timing.validate().unwrap_err()
        );
        // Static verification of the finished command stream. The `sum`
        // calls above profiled every event, so events consumed only for
        // timing do not show up as dead. Hazards (missing ordering edges)
        // abort the run; warnings and infos ride along on the report.
        let verify_report = if self.options.verify {
            let report = snp_verify::verify_command_log(&gpu.command_log());
            if report.has_errors() {
                return Err(EngineError::Device(snp_gpu_sim::SimError::Hazard(
                    report.render_text("command stream"),
                )));
            }
            Some(report)
        } else {
            None
        };
        if self.tracer.is_enabled() {
            self.tracer.end_span_with(
                run_span,
                timing.end_to_end_ns,
                vec![
                    ("passes", kernel_events.len().into()),
                    ("word_ops", (word_ops as u64).into()),
                    ("device", self.spec.name.as_str().into()),
                    ("double_buffered", u64::from(plan.double_buffered).into()),
                ],
            );
            let cache_after = timing_cache_stats();
            for (name, before, after) in [
                ("sim.timing_cache.hits", cache_before.hits, cache_after.hits),
                (
                    "sim.timing_cache.misses",
                    cache_before.misses,
                    cache_after.misses,
                ),
            ] {
                self.tracer.counter(run_track, name, init_ns, before as f64);
                self.tracer
                    .counter(run_track, name, timing.end_to_end_ns, after as f64);
            }
            // Per-chunk kernel durations as a Chrome counter track: the
            // timeline shows each chunk's cost at the instant it retired.
            for &e in &kernel_events {
                if let Ok(p) = gpu.event_profile(e) {
                    self.tracer.counter(
                        run_track,
                        "sim.profile.kernel_chunk_ns",
                        p.end_ns,
                        p.duration_ns() as f64,
                    );
                }
            }
        }
        let kernel_profiles = collect_kernel_profiles(self.options.profile, &gpu, &kernel_events);
        let _ = kernel_cycles_ns; // retained for future per-pass reporting
        Ok(RunReport {
            gamma,
            timing,
            word_ops,
            passes: kernel_events.len(),
            config: *cfg,
            kernel_word_ops_per_sec: word_ops as f64 / (kernel_ns.max(1) as f64 * 1e-9),
            verify_report,
            recovery: None,
            kernel_profiles,
        })
    }

    /// One enqueue under the bounded-retry policy: transient faults
    /// (transfer timeout, kernel launch failure) are retried with
    /// exponential virtual-time backoff charged to the host clock; repeated
    /// failures trip the per-queue circuit breaker, which quarantines the
    /// queue and enqueues on a fresh replacement. Non-transient errors
    /// (device loss, hazards, planning bugs) surface immediately.
    pub(crate) fn attempt_with_retry<T>(
        gpu: &Gpu,
        policy: &RecoveryPolicy,
        summary: &mut RecoverySummary,
        health: &mut QueueHealth,
        queue: &mut QueueId,
        queue_label: &str,
        mut f: impl FnMut(QueueId) -> Result<T, SimError>,
    ) -> Result<T, EngineError> {
        let mut attempt = 0u32;
        loop {
            match f(*queue) {
                Ok(v) => {
                    health.ok();
                    return Ok(v);
                }
                Err(SimError::DeviceFault(fault)) if fault.kind.is_transient() => {
                    if health.fail(policy) {
                        summary.quarantined_queues += 1;
                        metrics::QUEUE_QUARANTINED.add(1);
                        *queue = gpu.create_queue_labeled(queue_label);
                        *health = QueueHealth::default();
                    }
                    if attempt >= policy.max_retries {
                        return Err(EngineError::Device(SimError::DeviceFault(fault)));
                    }
                    let back = policy.backoff_for(attempt);
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
                                ("queue", queue_label.into()),
                            ],
                        );
                    }
                    summary.backoff_ns += back;
                    metrics::BACKOFF_NS.add(back);
                    metrics::BACKOFF_DELAY_NS.record(back);
                    summary.retries += 1;
                    metrics::RETRIES.add(1);
                    match fault.kind {
                        FaultKind::TransferTimeout => summary.retries_timeout += 1,
                        _ => summary.retries_launch += 1,
                    }
                    attempt += 1;
                }
                Err(e) => return Err(EngineError::Device(e)),
            }
        }
    }

    /// The fault-tolerant pipeline used when a fault plan is armed
    /// (DESIGN.md §10). Trades the fast path's software pipelining for
    /// chunk-sequential execution with bounded retry, checksum-verified
    /// readback, chunk checkpointing, queue circuit breaking, and — on
    /// permanent device loss in [`ExecMode::Full`] — CPU fallback for the
    /// chunks after the last checkpoint.
    #[allow(clippy::too_many_arguments)]
    fn run_plan_recovering(
        &self,
        a: &BitMatrix<u64>,
        b: &BitMatrix<u64>,
        op: CompareOp,
        cfg: &KernelConfig,
        plan: &TilePlan,
        algorithm: Algorithm,
        faults: FaultPlan,
    ) -> Result<RunReport, EngineError> {
        let full = self.options.mode == ExecMode::Full;
        let policy = self.options.recovery;
        let drop_b_dep = faults.profile().drop_kernel_b_dep;
        let gpu = Gpu::with_tracer(self.spec.clone(), self.tracer.clone());
        gpu.set_cost_scale(self.options.cost_scale);
        gpu.set_fault_plan(faults);
        let init_ns = gpu.now_ns();
        let run_track = self.tracer.track("engine", TimeDomain::Virtual);
        let run_span = self.tracer.begin_span(
            run_track,
            "run",
            format!("run (recovering): {}", algorithm.name()),
            0,
        );
        let mut q_xfer = gpu.create_queue_labeled("transfer");
        let mut q_comp = gpu.create_queue_labeled("compute");
        let mut health_xfer = QueueHealth::default();
        let mut health_comp = QueueHealth::default();
        let k = plan.k_words;

        let mk_buf = |words: usize| -> Result<BufferId, EngineError> {
            Ok(if full {
                gpu.create_buffer(words)?
            } else {
                gpu.create_virtual_buffer(words)?
            })
        };
        let a_buf = mk_buf(plan.a_buffer_words().max(1))?;
        let b_buf = mk_buf(plan.b_buffer_words().max(1))?;
        let c_buf = mk_buf(plan.c_buffer_words().max(1))?;

        let mut gamma = if full {
            Some(CountMatrix::zeros(a.rows(), b.rows()))
        } else {
            None
        };
        let mut a_stage: Vec<u32> = Vec::new();
        let mut b_stage: Vec<u32> = Vec::new();
        let mut c_stage: Vec<u32> = Vec::new();
        let mut pack_ns = 0u64;
        let mut kernel_events: Vec<EventId> = Vec::new();
        let mut in_events: Vec<EventId> = Vec::new();
        let mut out_events: Vec<EventId> = Vec::new();
        let mut word_ops: u128 = 0;
        let mut summary = RecoverySummary::default();

        // The checkpoint structure: chunks in m-major order, each verified
        // and scattered into `gamma` before the next begins, so the resume
        // point after a loss is simply the first incomplete index.
        let chunks: Vec<(usize, usize)> = (0..plan.m_chunks.len())
            .flat_map(|mi| (0..plan.n_chunks.len()).map(move |ni| (mi, ni)))
            .collect();
        summary.total_chunks = chunks.len();

        let mut last_m_uploaded: Option<usize> = None;
        let mut ev_a: Option<EventId> = None;
        let mut last_kernel: Option<EventId> = None;
        let mut lost_at: Option<usize> = None;
        let mut lost_err: Option<EngineError> = None;

        // Any step that fails with DeviceLoss abandons the device loop
        // (keeping the checkpointed prefix); any other error aborts.
        macro_rules! try_or_lose {
            ($lbl:lifetime, $ci:expr, $res:expr) => {
                match $res {
                    Ok(v) => v,
                    Err(e) => {
                        if e.device_fault()
                            .is_some_and(|f| f.kind == FaultKind::DeviceLoss)
                        {
                            lost_at = Some($ci);
                            lost_err = Some(e);
                            break $lbl;
                        }
                        return Err(e);
                    }
                }
            };
        }

        'chunks: for (ci, &(mi, ni)) in chunks.iter().enumerate() {
            let mc = &plan.m_chunks[mi];
            let nc = &plan.n_chunks[ni];

            // A upload, once per m-chunk. The previous kernel may still be
            // reading the buffer, so the write waits on it.
            if last_m_uploaded != Some(mi) {
                let a_bytes = (mc.len() * k * 4) as u64;
                pack_ns += self.spec.transfer.pack_ns(a_bytes);
                gpu.host_pack(a_bytes);
                if full {
                    device_words_into(a, mc.lo, mc.hi, &mut a_stage);
                }
                let adeps: Vec<EventId> = last_kernel.into_iter().collect();
                let ev = try_or_lose!(
                    'chunks,
                    ci,
                    Self::attempt_with_retry(
                        &gpu,
                        &policy,
                        &mut summary,
                        &mut health_xfer,
                        &mut q_xfer,
                        "transfer",
                        |q| if full {
                            gpu.enqueue_write(q, a_buf, 0, &a_stage, &adeps)
                        } else {
                            gpu.enqueue_virtual_write(q, a_buf, 0, mc.len() * k, &adeps)
                        },
                    )
                );
                in_events.push(ev);
                ev_a = Some(ev);
                last_m_uploaded = Some(mi);
            }

            // B upload.
            let b_bytes = (nc.len() * k * 4) as u64;
            pack_ns += self.spec.transfer.pack_ns(b_bytes);
            gpu.host_pack(b_bytes);
            if full {
                device_words_into(b, nc.lo, nc.hi, &mut b_stage);
            }
            let bdeps: Vec<EventId> = last_kernel.into_iter().collect();
            let ev_b = try_or_lose!(
                'chunks,
                ci,
                Self::attempt_with_retry(
                    &gpu,
                    &policy,
                    &mut summary,
                    &mut health_xfer,
                    &mut q_xfer,
                    "transfer",
                    |q| if full {
                        gpu.enqueue_write(q, b_buf, 0, &b_stage, &bdeps)
                    } else {
                        gpu.enqueue_virtual_write(q, b_buf, 0, nc.len() * k, &bdeps)
                    },
                )
            );
            in_events.push(ev_b);

            // Kernel. The recovery path always runs the scalar-popcount
            // plan: when the matrix-unit path faults mid-run, re-executed
            // chunks must not depend on the faulting unit, and the scalar
            // program is the bit-exact oracle on every device.
            let kplan = KernelPlan::with_lowering(
                &self.spec,
                cfg,
                op,
                mc.len(),
                nc.len(),
                k,
                Lowering::Scalar,
            );
            let mut kdeps = vec![ev_a.expect("A chunk uploaded before its kernels")];
            if !drop_b_dep {
                kdeps.push(ev_b);
            }
            let (m_len, n_len) = (mc.len(), nc.len());
            let ev_k = try_or_lose!(
                'chunks,
                ci,
                Self::attempt_with_retry(
                    &gpu,
                    &policy,
                    &mut summary,
                    &mut health_comp,
                    &mut q_comp,
                    "compute",
                    |q| if full {
                        gpu.enqueue_kernel(
                            q,
                            &kplan.cost(),
                            &[a_buf, b_buf],
                            c_buf,
                            &kdeps,
                            |reads, out| {
                                execute_gamma(op, reads[0], reads[1], out, m_len, n_len, k);
                            },
                        )
                    } else {
                        gpu.enqueue_kernel_timed_on(q, &kplan.cost(), &[a_buf, b_buf], c_buf, &kdeps)
                    },
                )
            );
            word_ops += kplan.word_ops;
            kernel_events.push(ev_k);
            last_kernel = Some(ev_k);

            // Readback, checksum-verified in Full mode: the device-side
            // checksum sees the uncorrupted buffer, so a mismatch against
            // the received words pinpoints link corruption and the chunk is
            // simply re-read. This is the only defense against the
            // *silent* fault class.
            let want_words = mc.len() * nc.len();
            if full {
                c_stage.resize(want_words, 0);
                let mut verify_attempts = 0u32;
                loop {
                    let ev_r = try_or_lose!(
                        'chunks,
                        ci,
                        Self::attempt_with_retry(
                            &gpu,
                            &policy,
                            &mut summary,
                            &mut health_xfer,
                            &mut q_xfer,
                            "transfer",
                            |q| gpu.enqueue_read(q, c_buf, 0, &mut c_stage, &[ev_k], true),
                        )
                    );
                    out_events.push(ev_r);
                    if !policy.checksums {
                        break;
                    }
                    let (dev_sum, ev_s) = try_or_lose!(
                        'chunks,
                        ci,
                        Self::attempt_with_retry(
                            &gpu,
                            &policy,
                            &mut summary,
                            &mut health_xfer,
                            &mut q_xfer,
                            "transfer",
                            |q| gpu.enqueue_checksum_read(q, c_buf, 0, want_words, &[ev_k]),
                        )
                    );
                    out_events.push(ev_s);
                    if dev_sum == checksum_words(&c_stage) {
                        break;
                    }
                    summary.corruption_detected += 1;
                    metrics::CORRUPTION_DETECTED.add(1);
                    verify_attempts += 1;
                    if verify_attempts > policy.max_retries {
                        return Err(EngineError::Device(SimError::DeviceFault(DeviceFault {
                            kind: FaultKind::ReadCorruption,
                            op: FaultOp::Read,
                            command_index: gpu.command_log().commands.len() as u64,
                        })));
                    }
                }
                let g = gamma.as_mut().expect("full mode");
                for (ri, row) in c_stage.chunks_exact(nc.len()).enumerate() {
                    g.row_mut(mc.lo + ri)[nc.lo..nc.hi].copy_from_slice(row);
                }
            } else {
                let ev_r = try_or_lose!(
                    'chunks,
                    ci,
                    Self::attempt_with_retry(
                        &gpu,
                        &policy,
                        &mut summary,
                        &mut health_xfer,
                        &mut q_xfer,
                        "transfer",
                        |q| gpu.enqueue_virtual_read(q, c_buf, 0, want_words, &[ev_k]),
                    )
                );
                out_events.push(ev_r);
            }
            summary.verified_chunks += 1;
            metrics::CHECKPOINT_CHUNKS.add(1);
        }

        // Permanent device loss: resume from the last checkpoint on the
        // CPU engine (Full mode with fallback enabled), or surface the
        // typed fault. The checkpointed prefix is never recomputed.
        let mut fallback_ns_total = 0u64;
        if let Some(ci) = lost_at {
            summary.device_lost = true;
            summary.resumed_from_chunk = Some(ci);
            metrics::DEVICE_LOSS.add(1);
            if gpu.tracer().is_enabled() {
                gpu.tracer().span_with(
                    gpu.host_track(),
                    "fault",
                    "device lost",
                    gpu.now_ns(),
                    gpu.now_ns(),
                    vec![("resume_chunk", ci.into())],
                );
            }
            if !(policy.cpu_fallback && full) {
                return Err(lost_err.expect("loss recorded with its error"));
            }
            let cpu = CpuEngine::new();
            let model = CpuModel::ivy_bridge_workstation();
            let kind = word_op_kind(op);
            let g = gamma.as_mut().expect("full mode");
            let mut fallback_ns = 0f64;
            for &(mi, ni) in &chunks[ci..] {
                let mc = &plan.m_chunks[mi];
                let nc = &plan.n_chunks[ni];
                let sub = cpu.gamma(&a.row_slice(mc.lo, mc.hi), &b.row_slice(nc.lo, nc.hi), op);
                for r in 0..mc.len() {
                    g.row_mut(mc.lo + r)[nc.lo..nc.hi].copy_from_slice(&sub.row(r)[..nc.len()]);
                }
                fallback_ns += model.time_ns(kind, mc.len(), nc.len(), a.words_per_row());
                summary.cpu_fallback_chunks += 1;
                metrics::CPU_FALLBACK_CHUNKS.add(1);
            }
            fallback_ns_total = fallback_ns.ceil() as u64;
            let fb_start = gpu.now_ns();
            gpu.advance_host_ns(fallback_ns_total);
            if gpu.tracer().is_enabled() {
                gpu.tracer().span_with(
                    gpu.host_track(),
                    "fallback",
                    "cpu fallback",
                    fb_start,
                    fb_start + fallback_ns_total,
                    vec![("chunks", summary.cpu_fallback_chunks.into())],
                );
            }
        }
        gpu.finish_all();
        summary.injected = gpu.fault_stats();
        summary.stalls_absorbed = summary.injected.queue_stalls;

        let sum = |evs: &[EventId]| -> u64 {
            evs.iter()
                .map(|&e| gpu.event_profile(e).map(|p| p.duration_ns()).unwrap_or(0))
                .sum()
        };
        let kernel_ns = record_kernel_chunks(&gpu, &kernel_events);
        let timing = Timing {
            init_ns,
            pack_ns,
            kernel_ns,
            transfer_in_ns: sum(&in_events),
            transfer_out_ns: sum(&out_events),
            recovery_ns: summary.backoff_ns + fallback_ns_total,
            end_to_end_ns: gpu.now_ns(),
        };
        debug_assert!(
            timing.validate().is_ok(),
            "timing reconciliation failed: {} ({timing:?})",
            timing.validate().unwrap_err()
        );
        // Recovered and partial streams must still verify clean: retries
        // and re-reads may not introduce ordering hazards.
        let verify_report = if self.options.verify {
            let report = snp_verify::verify_command_log(&gpu.command_log());
            if report.has_errors() {
                return Err(EngineError::Device(snp_gpu_sim::SimError::Hazard(
                    report.render_text("command stream"),
                )));
            }
            Some(report)
        } else {
            None
        };
        if self.tracer.is_enabled() {
            self.tracer.end_span_with(
                run_span,
                timing.end_to_end_ns,
                vec![
                    ("passes", kernel_events.len().into()),
                    ("retries", summary.retries.into()),
                    ("corruption_detected", summary.corruption_detected.into()),
                    ("device_lost", u64::from(summary.device_lost).into()),
                    ("device", self.spec.name.as_str().into()),
                ],
            );
        }
        let kernel_profiles = collect_kernel_profiles(self.options.profile, &gpu, &kernel_events);
        Ok(RunReport {
            gamma,
            timing,
            word_ops,
            passes: kernel_events.len(),
            config: *cfg,
            kernel_word_ops_per_sec: word_ops as f64 / (kernel_ns.max(1) as f64 * 1e-9),
            verify_report,
            recovery: Some(summary),
            kernel_profiles,
        })
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
        let op = compare_op(algorithm, eng.options.mixture);
        let cfg = config_for(&eng.spec, algorithm, shape);
        let plan = plan_passes(
            &eng.spec,
            &cfg,
            shape.m,
            shape.n,
            shape.k_words,
            eng.options.double_buffer,
        )?;
        // Timing-only never touches operand words, so empty placeholders
        // stand in for the matrices.
        let empty = BitMatrix::zeros(0, 0);
        eng.run_plan(&empty, &empty, op, &cfg, &plan, algorithm)
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
    fn device_words_preserve_bits() {
        let m = matrix(3, 130, 1);
        let dw = device_words(&m, 0, 3);
        assert_eq!(dw.len(), 3 * m.words_per_row() * 2);
        let m32: BitMatrix<u32> = m.convert();
        // Compare logical bits via the converted matrix: word w of row r is
        // dw[r*2*wpr + w] for the first min words.
        for r in 0..3 {
            for w in 0..m32.words_per_row() {
                assert_eq!(dw[r * 2 * m.words_per_row() + w], m32.row(r)[w]);
            }
        }
    }

    #[test]
    fn device_words_into_reuses_allocation() {
        let m = matrix(8, 500, 12);
        let mut stage = Vec::new();
        device_words_into(&m, 0, 8, &mut stage);
        assert_eq!(stage, device_words(&m, 0, 8));
        let cap = stage.capacity();
        // Smaller refill must reuse the grown allocation.
        device_words_into(&m, 2, 5, &mut stage);
        assert_eq!(stage, device_words(&m, 2, 5));
        assert_eq!(stage.capacity(), cap, "staging buffer must not reallocate");
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
