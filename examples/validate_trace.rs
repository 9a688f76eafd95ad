//! Standalone validator for Chrome `trace_event` JSON emitted by
//! `snpgpu ld|search|mixture --trace` and `snpgpu loadgen --trace|--flight`
//! — CI runs it against freshly generated artifacts to prove each file
//! parses and is schema-well-formed.
//!
//! ```text
//! cargo run --example validate_trace -- trace.json
//! ```

use std::process::ExitCode;

fn main() -> ExitCode {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: validate_trace <trace.json>");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("validate_trace: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match snp_trace::chrome::validate(&text) {
        Ok(stats) => {
            println!(
                "{path}: OK — {} metadata, {} slices, {} counter events",
                stats.metadata, stats.slices, stats.counters
            );
            if stats.slices == 0 {
                eprintln!("validate_trace: {path} contains no slices");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("validate_trace: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}
