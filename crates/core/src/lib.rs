//! # snp-core — the portable GPU framework for SNP comparisons
//!
//! This crate is the paper's primary contribution, rebuilt in Rust against
//! the simulated model GPU: a single parameterized kernel (the third BLIS
//! loop and its content — A tile staged in shared memory, B streamed from
//! global, a register tile of `γ` accumulators), specialized per device by
//! exactly four configuration values `m_c, m_r, k_c, n_r` plus a core grid,
//! all derivable from hardware features via the §V-A analytical model.
//!
//! * [`autoconf`] — configuration selection (Table II presets or Eqs. 4–7);
//! * [`kernel`] — the parameterized kernel: timing program + functional
//!   executor + launch planning;
//! * [`tiling`] — pass planning under global-memory/allocation limits
//!   (§VI-E-2);
//! * [`engine`] — end-to-end orchestration with double buffering (§VI-A-1):
//!   one tile-pass loop for the full-`γ` and the [`streaming`] top-k
//!   sinks, pipelined or, under an armed fault plan, [`recovery`]-checkpointed;
//! * [`cpu_model`] — the modeled Xeon E5-2620 v2 reference of Fig. 6.
//!
//! ```
//! use snp_core::{GpuEngine, Algorithm};
//! use snp_bitmat::{BitMatrix, CompareOp, reference_gamma};
//! use snp_gpu_model::devices;
//!
//! let panel = BitMatrix::<u64>::from_fn(48, 640, |r, c| (r * 31 + c * 7) % 5 == 0);
//! let engine = GpuEngine::new(devices::titan_v());
//! let run = engine.ld_self(&panel).unwrap();
//! let want = reference_gamma(&panel, &panel, CompareOp::And);
//! assert_eq!(run.gamma.unwrap().first_mismatch(&want), None);
//! assert!(run.timing.end_to_end_ns > 0);
//! ```

#![warn(missing_docs)]

pub mod autoconf;
pub mod cpu_model;
pub mod engine;
pub mod kernel;
pub mod multi;
pub mod profile;
pub mod recovery;
pub mod streaming;
pub mod tiling;

pub use autoconf::{compare_op, config_for, word_op_kind, MixtureStrategy};
pub use cpu_model::CpuModel;
pub use engine::{
    device_words_into, EngineError, EngineOptions, ExecMode, GpuEngine, RunReport, Timing,
};
pub use kernel::{
    execute_gamma, execute_gamma_mma, group_geometry, lowering_for, tile_program, tile_program_mma,
    tile_program_scalar, tile_program_with, GroupGeometry, KernelPlan, Lowering,
};
pub use multi::{dgx2_like, MultiGpuEngine, MultiRunReport};
pub use profile::{
    profile_cell, relative_drift, BandwidthReport, CellProfile, DriftReport, FuUtilization,
    Occupancy, Roofline, RooflineBound, ANALYTIC_DRIFT_TOLERANCE, ENGINE_DRIFT_TOLERANCE,
};
pub use recovery::{QueueHealth, RecoverySummary};
pub use snp_faults::{DeviceFault, FaultKind, FaultPlan, FaultProfile, FaultStats};
pub use snp_gpu_model::config::Algorithm;
pub use snp_gpu_sim::host::CostScale;
pub use streaming::{topk_of_row, Match, TopKReport};
pub use tiling::{plan_passes, Chunk, PlanError, TilePlan};
