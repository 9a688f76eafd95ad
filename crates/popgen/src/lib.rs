//! # snp-popgen — synthetic workloads and genetics statistics
//!
//! The paper's experiments run on simulated SNP datasets (Fig. 6) and on
//! NDIS-scale forensic databases (Fig. 8). This crate generates those
//! inputs deterministically and computes the population-genetics statistics
//! the comparisons feed:
//!
//! * [`freq`] — minor-allele-frequency spectra (neutral, Beta-ascertained,
//!   uniform, fixed);
//! * [`population`] — LD panels with block correlation structure, plus fast
//!   dense generators for raw-throughput benchmarks;
//! * [`forensic`] — reference databases, query sets with planted ground
//!   truth, and DNA mixtures built as contributor unions;
//! * [`ld_stats`] — `D`, `D'`, `r²` from popcount-GEMM outputs.
//!
//! ```
//! use snp_popgen::forensic::{generate_database, generate_queries, DatabaseConfig};
//! use snp_bitmat::{reference_gamma, CompareOp};
//!
//! let db = generate_database(&DatabaseConfig { profiles: 64, snps: 128, ..Default::default() }, 1);
//! let qs = generate_queries(&db, 4, 4, 0.0, 2);
//! let gamma = reference_gamma(&qs.queries, &db.profiles, CompareOp::Xor);
//! for (q, truth) in qs.truth.iter().enumerate() {
//!     assert_eq!(gamma.get(q, truth.unwrap()), 0); // exact identity match
//! }
//! ```

#![warn(missing_docs)]

pub mod forensic;
pub mod freq;
pub mod kinship;
pub mod ld_stats;
pub mod population;
mod sampler;
pub mod scoring;

pub use forensic::{Database, DatabaseConfig, Mixture, QuerySet};
pub use freq::FrequencySpectrum;
pub use kinship::{
    classify_pairs, generate_family, ibs, FamilyStudy, KinshipClassifier, Relationship,
};
pub use ld_stats::{ld_pair, LdPair};
pub use population::{generate_independent, generate_panel, random_dense, Panel, PanelConfig};
pub use scoring::IdentityScorer;
