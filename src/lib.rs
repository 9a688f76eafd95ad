//! # snp-repro — umbrella crate
//!
//! Re-exports the workspace's public API for the runnable examples and the
//! cross-crate integration tests.

#![warn(missing_docs)]

pub use snp_bitmat as bitmat;
pub use snp_core as core;
pub use snp_cpu as cpu;
pub use snp_gpu_model as gpu_model;
pub use snp_gpu_sim as gpu_sim;
pub use snp_load as load;
pub use snp_microbench as microbench;
pub use snp_popgen as popgen;
pub use snp_verify as verify;
