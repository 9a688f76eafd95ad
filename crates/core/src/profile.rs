//! Roofline analysis and analytical-model drift detection.
//!
//! The simulator attaches a hardware-counter record
//! ([`KernelProfile`](snp_gpu_sim::KernelProfile)) to every kernel launch;
//! this module turns those raw counters into the two derived reports the
//! paper's evaluation methodology implies:
//!
//! * **Roofline** (§VI): each algorithm × device cell is placed on the
//!   device's roofline — arithmetic intensity in word-ops per byte against
//!   the compute peak (Eqs. 4–7, the dotted lines of Fig. 5) and the
//!   effective DRAM bandwidth — and classified compute- or memory-bound.
//! * **Model drift**: three independently produced times for the same
//!   launch are reconciled — the Eq. 4–7 *analytical* prediction from
//!   `gpu-model`, the *static* model the engine prices every launch with
//!   (the tile program's latency-weighted critical path, DESIGN.md §14.3),
//!   and the *detailed-engine* measurement (cycle-stepped simulation).
//!   Pairs diverging beyond their tolerance ([`ANALYTIC_DRIFT_TOLERANCE`],
//!   [`ENGINE_DRIFT_TOLERANCE`]) are flagged; the golden test fails on any
//!   flagged cell, so the models cannot silently drift apart as the
//!   codebase grows.
//!
//! Counter definitions, the roofline construction, and the tolerance
//! rationale are documented in DESIGN.md §11.

use snp_gpu_model::config::{Algorithm, ProblemShape};
use snp_gpu_model::peak::{effective_peak_for_cores, matrix_unit_peak, peak_for_cores};
use snp_gpu_model::DeviceSpec;
use snp_gpu_sim::{program_counters, simulate_core};

use crate::autoconf::{compare_op, word_op_kind};
use crate::engine::{EngineError, EngineOptions, ExecMode, GpuEngine};
use crate::kernel::{group_geometry, tile_program, KernelPlan};

/// Process-wide profiler metrics (in the `snp-trace` registry).
pub mod metrics {
    use snp_trace::{LazyCounter, LazyHistogram};

    /// Algorithm × device cells profiled.
    pub static CELLS: LazyCounter = LazyCounter::new("sim.profile.cells");
    /// Cells whose three-way drift exceeded the tolerance.
    pub static DRIFT_VIOLATIONS: LazyCounter = LazyCounter::new("sim.profile.drift_violations");
    /// Per-chunk kernel durations across engine runs, in virtual ns.
    pub static KERNEL_CHUNK_NS: LazyHistogram = LazyHistogram::new("sim.profile.kernel_chunk_ns");
}

/// Maximum tolerated relative divergence between the Eq. 4–7 analytical
/// prediction and either engine, as `|a − b| / max(a, b)`.
///
/// Rationale (DESIGN.md §11): the analytical leg prices only the
/// bottleneck arithmetic at peak issue rate, while the engines additionally
/// charge loads, address bookkeeping and standalone NOTs — the same gap the
/// paper's Fig. 5 shows between achieved throughput and the dotted
/// analytical roofs. Measured on the 3 × 3 algorithm × device matrix the
/// divergence is 0.5–40% (worst: GTX 980 LD, whose small register tile
/// amortizes loads least); 0.45 flags any further regression without
/// flagging the known structural gap.
pub const ANALYTIC_DRIFT_TOLERANCE: f64 = 0.45;

/// Maximum tolerated relative divergence between the static critical-path
/// model and the detailed-engine measurement of the same launch.
///
/// These two model the same instruction stream, so they must agree tightly:
/// the static model omits only the detailed engine's drain and arbitration
/// detail, and the measured divergence across the 12-cell matrix is at most
/// 0.63%. 2% catches any real modeling drift.
pub const ENGINE_DRIFT_TOLERANCE: f64 = 0.02;

/// Cycle budget for the detailed-engine drift leg. One tile job at the
/// profiling shapes runs well under a million cycles; the budget only
/// guards against runaway programs.
const DETAILED_BUDGET: u64 = 500_000_000;

/// Busy-vs-wall utilization of one functional-unit pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct FuUtilization {
    /// Pipeline name (`popc`, `alu`, `valu`, …).
    pub pipeline: String,
    /// Issue cycles the kernel places on this pipeline per *cluster* per
    /// tile job (static count × resident groups per cluster).
    pub busy_cycles: u64,
    /// Busy cycles from the detailed engine's cycle-stepped run, summed
    /// over one core's clusters — the measured counterpart
    /// (≈ `busy_cycles × n_clusters`, since clusters run in lockstep).
    pub detailed_busy_cycles: u64,
    /// `busy_cycles / wall_cycles` of one tile job; the bottleneck
    /// pipeline sits near 1.0 on compute-bound cells.
    pub utilization: f64,
}

/// Achieved occupancy in resident thread groups per core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Occupancy {
    /// Groups the configuration makes resident per core.
    pub groups_per_core: u32,
    /// The latency-hiding target the device model prescribes
    /// (`chosen_occupancy_groups`).
    pub target_groups: u32,
    /// `groups_per_core / target_groups`.
    pub achieved: f64,
}

/// Achieved vs peak global-memory bandwidth over the cell's kernels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandwidthReport {
    /// Bytes the launches were charged for.
    pub bytes_moved: u64,
    /// Bytes per second over the summed kernel wall time.
    pub achieved_bytes_s: f64,
    /// The device's effective DRAM peak.
    pub peak_bytes_s: f64,
    /// `achieved / peak`.
    pub fraction: f64,
}

/// Which roof bounds a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RooflineBound {
    /// Arithmetic intensity right of the ridge: compute peak binds.
    Compute,
    /// Left of the ridge: DRAM bandwidth binds.
    Memory,
}

impl RooflineBound {
    /// Stable lower-case label (`"compute"` / `"memory"`).
    pub fn label(&self) -> &'static str {
        match self {
            RooflineBound::Compute => "compute",
            RooflineBound::Memory => "memory",
        }
    }
}

/// The cell's position on the device roofline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Roofline {
    /// Word-ops per byte of global traffic.
    pub arithmetic_intensity: f64,
    /// The ridge point `compute_peak / bandwidth_peak`, in word-ops/byte —
    /// for a matrix-unit plan this is the matrix-unit ridge.
    pub ridge: f64,
    /// The compute peak pricing the plan, word-ops/s: the Eq. 4–7 scalar
    /// peak for scalar plans, the matrix-unit peak for MMA plans (both at
    /// the active core count).
    pub compute_peak_word_ops_s: f64,
    /// Effective DRAM bandwidth, bytes/s.
    pub memory_peak_bytes_s: f64,
    /// The second, higher compute ridge contributed by the device's 1-bit
    /// matrix unit, word-ops/byte at the active core count. `None` on
    /// devices without a matrix unit; on devices with one it is present for
    /// scalar and MMA plans alike (the roofline has both roofs either way).
    pub matrix_unit_ridge: Option<f64>,
    /// The binding roof.
    pub bound: RooflineBound,
}

/// Relative divergence `|a − b| / max(a, b)` (0 when both are 0).
pub fn relative_drift(a: f64, b: f64) -> f64 {
    let m = a.max(b);
    if m <= 0.0 {
        0.0
    } else {
        (a - b).abs() / m
    }
}

/// Three-way reconciliation of one cell's kernel time, launch overhead
/// excluded from every leg so the comparison is between the *models*, not
/// the fixed launch constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftReport {
    /// Eq. 4–7 analytical prediction: word-ops at the peak rate of the
    /// active cores, floored by the bandwidth bound.
    pub analytic_ns: f64,
    /// The static model's time: the plan's own memoized critical-path
    /// cycles ([`KernelPlan::core_cycles`]), floored by the bandwidth bound.
    pub macro_ns: f64,
    /// Detailed-engine measurement (cycle-stepped tile job × jobs).
    pub detailed_ns: f64,
    /// `relative_drift(analytic, macro)`, judged against
    /// [`ANALYTIC_DRIFT_TOLERANCE`].
    pub analytic_vs_macro: f64,
    /// `relative_drift(macro, detailed)`, judged against
    /// [`ENGINE_DRIFT_TOLERANCE`].
    pub macro_vs_detailed: f64,
    /// `relative_drift(analytic, detailed)`, judged against
    /// [`ANALYTIC_DRIFT_TOLERANCE`].
    pub analytic_vs_detailed: f64,
    /// Tolerance applied to the analytic-vs-engine pairs.
    pub analytic_tolerance: f64,
    /// Tolerance applied to the macro-vs-detailed pair.
    pub engine_tolerance: f64,
}

impl DriftReport {
    fn new(analytic_ns: f64, macro_ns: f64, detailed_ns: f64) -> DriftReport {
        DriftReport {
            analytic_ns,
            macro_ns,
            detailed_ns,
            analytic_vs_macro: relative_drift(analytic_ns, macro_ns),
            macro_vs_detailed: relative_drift(macro_ns, detailed_ns),
            analytic_vs_detailed: relative_drift(analytic_ns, detailed_ns),
            analytic_tolerance: ANALYTIC_DRIFT_TOLERANCE,
            engine_tolerance: ENGINE_DRIFT_TOLERANCE,
        }
    }

    /// The worst pairwise divergence.
    pub fn max_drift(&self) -> f64 {
        self.analytic_vs_macro
            .max(self.macro_vs_detailed)
            .max(self.analytic_vs_detailed)
    }

    /// Whether every pair agrees within its tolerance.
    pub fn within_tolerance(&self) -> bool {
        self.analytic_vs_macro <= self.analytic_tolerance
            && self.analytic_vs_detailed <= self.analytic_tolerance
            && self.macro_vs_detailed <= self.engine_tolerance
    }
}

/// The full profiler report for one algorithm × device cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellProfile {
    /// Device name.
    pub device: String,
    /// Algorithm profiled.
    pub algorithm: Algorithm,
    /// Problem shape the cell ran.
    pub shape: ProblemShape,
    /// Kernel launches the engine issued.
    pub passes: usize,
    /// Summed kernel wall time from event profiling, ns.
    pub kernel_ns: u64,
    /// Dynamic instructions per thread group per tile job, by class
    /// (first-appearance order).
    pub instrs_by_class: Vec<(String, u64)>,
    /// Per-pipeline busy/utilization counters.
    pub fu: Vec<FuUtilization>,
    /// Shared-memory bank-conflict replays per group per tile job (the SNP
    /// kernel is conflict-free by construction, so a non-zero value is a
    /// regression signal).
    pub bank_conflict_replays: u64,
    /// Wall cycles of one tile job on one core (detailed engine).
    pub job_cycles: u64,
    /// Occupancy achieved vs the latency-hiding target.
    pub occupancy: Occupancy,
    /// Achieved vs peak bandwidth.
    pub bandwidth: BandwidthReport,
    /// Position on the device roofline.
    pub roofline: Roofline,
    /// Three-way model reconciliation.
    pub drift: DriftReport,
}

/// Profiles one algorithm × device cell at `shape`: runs the full engine
/// pipeline timing-only with per-launch profiling on, re-derives the static
/// counters from the tile program, runs the detailed engine on one tile
/// job, and reconciles the three model legs.
pub fn profile_cell(
    dev: &DeviceSpec,
    algorithm: Algorithm,
    shape: ProblemShape,
) -> Result<CellProfile, EngineError> {
    let opts = EngineOptions {
        mode: ExecMode::TimingOnly,
        profile: true,
        ..Default::default()
    };
    let run = GpuEngine::new(dev.clone())
        .with_options(opts)
        .run_shape(shape, algorithm)?;
    let launches = run.kernel_profiles.as_deref().unwrap_or(&[]);

    let op = compare_op(algorithm, opts.mixture);
    let kind = word_op_kind(op);
    let cfg = run.config;
    let geo = group_geometry(dev, &cfg);
    let prog = tile_program(dev, &cfg, op, shape.k_words);
    let counters = program_counters(dev, &prog);

    // One whole-shape launch plan: the representative the drift legs and
    // the roofline are computed against (per-pass chunking only splits the
    // same work across launches).
    let plan = KernelPlan::new(dev, &cfg, op, shape.m, shape.n, shape.k_words);
    let per_job_cycles = plan.core_cycles / plan.jobs_per_core as f64;

    // Detailed leg: cycle-step one tile job at the configured occupancy.
    let det = simulate_core(dev, &prog, geo.groups_per_core, DETAILED_BUDGET)
        .map_err(|_| EngineError::Device(snp_gpu_sim::SimError::DetailedBudget))?;

    let fu: Vec<FuUtilization> = dev
        .pipelines
        .iter()
        .enumerate()
        .map(|(p, spec)| {
            let busy = counters.issue_cycles_per_pipeline[p] * cfg.groups_per_cluster as u64;
            FuUtilization {
                pipeline: spec.name.clone(),
                busy_cycles: busy,
                detailed_busy_cycles: det.pipeline_busy.get(p).copied().unwrap_or(0),
                utilization: busy as f64 / per_job_cycles.max(1.0),
            }
        })
        .collect();

    let target_groups = dev.chosen_occupancy_groups();
    let occupancy = Occupancy {
        groups_per_core: geo.groups_per_core,
        target_groups,
        achieved: geo.groups_per_core as f64 / target_groups.max(1) as f64,
    };

    let peak_bw = dev.memory.effective_bandwidth_bytes_s();
    let bytes_moved: u64 = launches.iter().map(|p| p.traffic.total()).sum();
    let kernel_s = run.timing.kernel_ns.max(1) as f64 * 1e-9;
    let achieved_bw = bytes_moved as f64 / kernel_s;
    let bandwidth = BandwidthReport {
        bytes_moved,
        achieved_bytes_s: achieved_bw,
        peak_bytes_s: peak_bw,
        fraction: achieved_bw / peak_bw,
    };

    // MMA plans are priced (and classified) against the matrix-unit peak;
    // scalar plans keep the Eq. 4–7 scalar roof even on matrix-unit devices.
    let compute_peak = if plan.lowering.uses_matrix_unit() {
        effective_peak_for_cores(dev, kind, plan.active_cores).word_ops_per_sec
    } else {
        peak_for_cores(dev, kind, plan.active_cores).word_ops_per_sec
    };
    let intensity = plan.word_ops as f64 / plan.traffic.total().max(1) as f64;
    let ridge = compute_peak / peak_bw;
    let matrix_unit_ridge = matrix_unit_peak(dev, kind).map(|p| {
        let cores = plan.active_cores.min(dev.n_cores) as f64;
        p.word_ops_per_sec_per_core * cores / peak_bw
    });
    let roofline = Roofline {
        arithmetic_intensity: intensity,
        ridge,
        compute_peak_word_ops_s: compute_peak,
        memory_peak_bytes_s: peak_bw,
        matrix_unit_ridge,
        bound: if intensity < ridge {
            RooflineBound::Memory
        } else {
            RooflineBound::Compute
        },
    };

    // Drift legs. Every leg takes `max(its compute estimate, the shared
    // bandwidth floor)` and excludes the launch constant, so disagreement
    // is purely model disagreement.
    let t = plan.time(dev);
    let memory_ns = t.memory_ns;
    let analytic_ns = (plan.word_ops as f64 / compute_peak * 1e9).max(memory_ns);
    let macro_ns = t.compute_ns.max(memory_ns);
    let det_compute_ns =
        dev.cycles_to_ns(det.cycles as f64 * plan.jobs_per_core as f64) / t.scaling_efficiency;
    let detailed_ns = det_compute_ns.max(memory_ns);
    let drift = DriftReport::new(analytic_ns, macro_ns, detailed_ns);

    metrics::CELLS.add(1);
    if !drift.within_tolerance() {
        metrics::DRIFT_VIOLATIONS.add(1);
    }

    Ok(CellProfile {
        device: dev.name.clone(),
        algorithm,
        shape,
        passes: run.passes,
        kernel_ns: run.timing.kernel_ns,
        instrs_by_class: counters
            .instrs_by_class
            .iter()
            .map(|&(c, n)| (c.to_string(), n))
            .collect(),
        fu,
        bank_conflict_replays: counters.bank_conflict_replays,
        job_cycles: det.cycles,
        occupancy,
        bandwidth,
        roofline,
        drift,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use snp_gpu_model::devices;

    fn shape() -> ProblemShape {
        ProblemShape {
            m: 2048,
            n: 2048,
            k_words: 256,
        }
    }

    #[test]
    fn all_cells_within_tolerance_and_compute_bound() {
        for dev in devices::all_gpus() {
            for alg in [
                Algorithm::LinkageDisequilibrium,
                Algorithm::IdentitySearch,
                Algorithm::MixtureAnalysis,
            ] {
                let cell = profile_cell(&dev, alg, shape()).unwrap();
                assert!(
                    cell.drift.within_tolerance(),
                    "{} / {}: max drift {:.3} (analytic {:.0} macro {:.0} detailed {:.0})",
                    dev.name,
                    alg.name(),
                    cell.drift.max_drift(),
                    cell.drift.analytic_ns,
                    cell.drift.macro_ns,
                    cell.drift.detailed_ns,
                );
                // Roofline classification is consistent with the measured
                // legs: a compute-bound cell's engine time is set by its
                // compute estimate, not the bandwidth floor.
                if cell.roofline.bound == RooflineBound::Compute {
                    assert!(
                        cell.drift.macro_ns >= cell.drift.analytic_ns * 0.99,
                        "{} / {}",
                        dev.name,
                        alg.name()
                    );
                }
                assert_eq!(cell.bank_conflict_replays, 0);
                assert!(cell.occupancy.groups_per_core > 0);
                assert!(cell.bandwidth.fraction > 0.0 && cell.bandwidth.fraction < 1.0);
            }
        }
    }

    #[test]
    fn bottleneck_fu_is_nearly_saturated() {
        // The whole point of the paper's configuration model: the chosen
        // config keeps the bottleneck FU busy. The bottleneck pipeline's
        // utilization must dominate and approach 1.
        let dev = devices::gtx_980();
        let cell = profile_cell(&dev, Algorithm::LinkageDisequilibrium, shape()).unwrap();
        let popc = cell.fu.iter().find(|f| f.pipeline == "popc").unwrap();
        assert!(
            popc.utilization > 0.85 && popc.utilization <= 1.0 + 1e-9,
            "popc utilization {:.3}",
            popc.utilization
        );
        // The detailed engine agrees the pipeline was busy.
        assert!(popc.detailed_busy_cycles > 0);
    }

    #[test]
    fn relative_drift_is_symmetric_and_bounded() {
        assert_eq!(relative_drift(0.0, 0.0), 0.0);
        assert_eq!(relative_drift(5.0, 5.0), 0.0);
        let d = relative_drift(80.0, 100.0);
        assert!((d - 0.2).abs() < 1e-12);
        assert_eq!(relative_drift(80.0, 100.0), relative_drift(100.0, 80.0));
        assert!(relative_drift(1.0, 1e9) < 1.0);
    }
}
