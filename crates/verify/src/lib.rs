//! # snp-verify — static analyzers for the simulated GPU stack
//!
//! Two analyzers over artifacts the rest of the workspace already builds
//! (DESIGN.md §9):
//!
//! * [`verify_command_log`] — a vector-clock **race detector** over the
//!   host's command DAG. The simulator's functional semantics are enqueue-
//!   order, so a dropped event edge costs nothing *here* — but on a real
//!   OpenCL device it is a data race. The detector reports RAW/WAR/WAW
//!   hazards (`V001`–`V003`), dead events (`V004`), transitively redundant
//!   waits (`V005`) and cross-queue overlap statistics (`V006`).
//! * [`lint_kernel`] — a **kernel/ISA linter** checking a planned launch
//!   against its device: undefined registers (`V101`), register pressure
//!   vs the architectural cap (`V102`), shared-memory capacity (`V103`),
//!   bank-conflict degrees vs `N_b` (`V104`), degenerate blocks (`V105`)
//!   and declared costs that beat the Eq. 4–7 peak model (`V106`).
//! * [`lint_kernel_deep`] — the above plus the **dataflow /
//!   abstract-interpretation layer** (DESIGN.md §14): trip-sensitive
//!   reaching definitions with loop-carried edges, first-trip
//!   read-before-write (`V110`), dead writes (`V111`), live-range register
//!   pressure and the occupancy headroom renaming would unlock (`V112`),
//!   the lower bound of the engine's own critical-path model
//!   ([`snp_gpu_sim::critical_path`]) reconciled against the declared
//!   analytic cost (`V113`), and scalar-vs-MMA
//!   cross-lowering consistency ([`lint_cross_lowering`], `V114`).
//!
//! All return a [`Report`] of coded [`Diagnostic`]s; [`VerifyError`] wraps
//! a failing report as a `std::error::Error` so gates compose with `?`.
//!
//! ```
//! use snp_gpu_model::devices;
//! use snp_gpu_sim::host::{Gpu, KernelCost};
//! use snp_gpu_sim::macro_engine::Traffic;
//!
//! let gpu = Gpu::new(devices::gtx_980());
//! let (q0, q1) = (gpu.create_queue(), gpu.create_queue());
//! let src = gpu.create_virtual_buffer(1024).unwrap();
//! let dst = gpu.create_virtual_buffer(1024).unwrap();
//! let cost = KernelCost::Analytic { core_cycles: 1e5, active_cores: 4, traffic: Traffic::default() };
//! let ev = gpu.enqueue_virtual_write(q0, src, 0, 1024, &[]).unwrap();
//! // Forget `&[ev]` and the kernel races the transfer on a real device:
//! let k = gpu.enqueue_kernel_timed_on(q1, &cost, &[src], dst, &[]).unwrap();
//! let _ = (gpu.event_profile(ev).unwrap(), gpu.event_profile(k).unwrap());
//! let report = snp_verify::verify_command_log(&gpu.command_log());
//! assert_eq!(report.with_code("V001-RAW").count(), 1);
//! ```

#![warn(missing_docs)]

pub mod critpath;
pub mod dataflow;
pub mod diag;
pub mod lint;
pub mod race;

pub use critpath::{lint_critpath, lint_cross_lowering};
pub use dataflow::{lint_dataflow, Dataflow, RegPressure};
pub use diag::{json_escape, Diagnostic, Report, Severity, VerifyError};
pub use lint::{lint_kernel, lint_kernel_deep, PlanFacts};
pub use race::verify_command_log;
