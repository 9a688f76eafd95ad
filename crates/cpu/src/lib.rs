//! # snp-cpu — the high-performance CPU baseline
//!
//! A from-scratch Rust reimplementation of the CPU algorithm the paper
//! builds on (Alachiotis et al. \[11\], paper §III): the BLIS five-loop
//! blocked matrix multiplication with the floating-point microkernel
//! replaced by the three-instruction popcount sequence
//! `γ += POPC(a ⋄ b)` over 64-bit words. A is packed, B is read in place,
//! each Ã panel's sums go from registers straight into γ, and rayon runs
//! tiles of γ, cut to fit any shape, across cores. γ is written once, as
//! BLIS writes C when β = 0: a tile's first `k_c` block stores its sums and
//! later blocks add theirs, so no entry zero-fills γ. LD compares a panel
//! with itself, so its γ is symmetric: its tiles cover only the upper
//! triangle, and the tile that computes a block also writes the block's
//! transpose below the diagonal.
//!
//! This is both a real, runnable engine (benchmarked end to end and per
//! layer by `perfbench`) and the GEMM every simulated GPU pass computes
//! with (`snp_core::kernel::execute_gamma`). The independent correctness
//! oracle for both is the scalar `snp_bitmat::reference_gamma`.
//!
//! * [`CpuEngine`] — algorithm-level API (LD, identity search, mixture
//!   analysis);
//! * [`CpuBlocking`] — cache-derived blocking parameters (Low et al. \[21\]);
//! * [`microkernel`] — the architecture-specific inner kernel, one panel
//!   run per Ã panel on the host's fastest popcount instruction, chosen at
//!   run time;
//! * [`gemm`] / [`parallel`] — the tile loop nest, on one thread and on the
//!   rayon pool;
//! * [`symmetric`] — the same tiles over the upper triangle of a
//!   self-comparison, each also writing its mirror (the LD path).

#![warn(missing_docs)]

pub mod blocking;
pub mod engine;
pub mod gemm;
pub mod microkernel;
pub mod parallel;
pub mod simd;
pub mod symmetric;

pub use blocking::{CacheParams, CpuBlocking};
pub use engine::CpuEngine;
pub use parallel::{gamma_parallel_into_traced, ParallelSchedule, ParallelStats};
pub use symmetric::gamma_self_symmetric;
