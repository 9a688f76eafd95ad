//! # snp-cli — the `snpgpu` command-line tool
//!
//! A thin, dependency-free front end over the workspace: list the modeled
//! devices, derive kernel configurations, run microbenchmarks, and execute
//! LD / identity-search / mixture-analysis workloads on any simulated GPU
//! (or the real CPU engine). Every subcommand reads and checks all of its
//! options, makes one library call and renders the result. See
//! [`commands::USAGE`].

#![warn(missing_docs)]

pub mod args;
pub mod commands;

pub use args::{ArgError, Args};
pub use commands::{run_full, CliError, CmdReport, ExitCode, USAGE};
