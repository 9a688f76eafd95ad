//! # snp-bitmat — bit-packed SNP matrix substrate
//!
//! This crate is the data-representation layer shared by every engine in the
//! workspace: SNP sequences are stored as bit-packed binary matrices in which
//! a `1` marks the presence of a minor allele at a site and a `0` its absence
//! (paper §III, Fig. 2). On top of the representation it provides:
//!
//! * [`Word`] — the machine-word abstraction (`u32` for the model GPU's
//!   4-byte elements, `u64` for the CPU engine);
//! * [`BitMatrix`] — packed, padded, row-major bit matrices;
//! * [`CompareOp`] — the three word-combining operators (AND for linkage
//!   disequilibrium, XOR for FastID identity search, AND-NOT for mixture
//!   analysis) plus the pre-negation transformation of paper §II-C;
//! * [`PackedPanels`] — BLIS-style panel packing used by the blocked engines;
//! * [`reference_gamma`] — the scalar reference popcount-GEMM every
//!   optimized engine is validated against;
//! * [`CountMatrix`] — dense `γ` output matrices.
//!
//! ```
//! use snp_bitmat::{BitMatrix, CompareOp, reference_gamma};
//!
//! // Three 6-site profiles.
//! let db = BitMatrix::<u64>::from_bool_rows(&[
//!     vec![true, false, true, false, true, false],
//!     vec![true, true, false, false, true, false],
//!     vec![false, false, true, true, false, true],
//! ]);
//! let query = db.row_slice(1, 2); // "suspect" profile equals database row 1
//! let gamma = reference_gamma(&query, &db, CompareOp::Xor);
//! assert_eq!(gamma.get(0, 1), 0); // zero differences: a positive match
//! assert!(gamma.get(0, 0) > 0 && gamma.get(0, 2) > 0);
//! ```

#![warn(missing_docs)]

mod count;
mod matrix;
mod ops;
mod pack;
mod reference;
mod word;

pub use count::CountMatrix;
pub use matrix::BitMatrix;
pub use ops::{dot, CompareOp};
pub use pack::PackedPanels;
pub use reference::{reference_gamma, reference_gamma_self};
pub use word::Word;
