//! `snp-load`: a deterministic, seedable open-loop load generator for the
//! SNP engine, with admission control, latency SLOs, saturation sweeps,
//! and flight-recorder post-mortems.
//!
//! The paper's operational setting is interactive forensic search: what
//! matters is per-query latency under concurrent load, not just kernel
//! throughput. This crate poses as that traffic:
//!
//! * [`arrival`] — Poisson and bursty open-loop arrival processes on the
//!   simulator's virtual clock, fully determined by `(kind, rate, seed)`.
//! * [`workload`] — query templates (LD scan, FastID identity search via
//!   full-γ *and* streaming top-k readback, mixture analysis) over shared
//!   seeded data sets, each executing in `ExecMode::Full`, with brownout
//!   service tiers and result digests for the silent-corruption oracle.
//! * [`admission`] — per-tenant token-bucket quotas, SLO-derived deadlines,
//!   typed shedding with a provable feasibility bound, and the hysteretic
//!   brownout controller (full → reduced top-k → CPU-only); the quota,
//!   brownout and shed-storm thresholds are constants.
//! * [`scheduler`] — equal-share fair queueing across tenants with
//!   earliest-deadline-first dispatch within each tenant; runs in FIFO
//!   policy mode when admission is disabled, reproducing the legacy
//!   single-FIFO server byte-for-byte.
//! * [`runner`] — the replay engine in virtual time, in four stages (plan
//!   → admission gate → execute → report), keeping each query's
//!   [`snp_trace::QueryCtx`]-tagged trace, from which the report builds
//!   one Chrome timeline and the post-mortem of the first typed fault,
//!   device loss, shed storm, or SLO breach on demand; a saturation sweep
//!   that steps offered load until the latency knee appears, and the
//!   overload-chaos matrix (8x bursty load plus a device fault, one cell
//!   per algorithm).
//! * [`slo`] — per-algorithm latency objectives and error-budget burn,
//!   judged on exact (not bucketed) percentiles.
//! * [`report`] — byte-reproducible `slo-report.json` and text rendering,
//!   and each run's [`Verdict`].
//!
//! The arrival model, queue semantics, and SLO math are documented in
//! `DESIGN.md` §13; the admission architecture in §15.

#![warn(missing_docs)]

pub mod admission;
pub mod anatomy;
pub mod arrival;
pub mod report;
pub mod runner;
pub mod scheduler;
pub mod slo;
pub mod whatif;
pub mod workload;

pub use admission::{
    AdmissionConfig, BrownoutController, CostModel, ShedReason, Tier, TierTransition, TokenBucket,
};
pub use anatomy::{
    decompose_query, AnatomyReport, BandAnatomy, QueryAnatomy, Segment, SEGMENT_COUNT,
};
pub use arrival::{arrival_times, ArrivalKind};
pub use report::Verdict;
pub use runner::{
    overload_chaos, run, saturation_sweep, AdmissionReport, ChaosCell, ChaosReport, FaultSpec,
    LoadConfig, LoadReport, Outcome, OutcomeCounts, Postmortem, QueryRecord, SweepPoint,
    SweepReport, TenantReport, CHAOS_RATE_MULTIPLIER, SWEEP_MULTIPLIERS, TENANTS,
};
pub use scheduler::{QueuedQuery, Scheduler};
pub use slo::{evaluate, percentile, Slo, SloOutcome, SloPolicy};
pub use snp_core::CostScale;
pub use whatif::{
    default_perturbations, run_whatif, Confirmation, Perturbation, WhatIfOutcome, WhatIfReport,
};
pub use workload::{
    cpu_service_ns, run_query, run_query_tier, templates_for, ServiceReport, Template, WorkloadSet,
    REDUCED_TOPK,
};
