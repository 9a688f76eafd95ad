//! # snp-bench — the paper's tables and figures
//!
//! One function per paper table/figure, each returning its report text
//! (see DESIGN.md §4 for the index). Each has a one-line binary of the same
//! name that prints it, and the committed `results/<name>.txt` holds its
//! output byte for byte, pinned by the umbrella crate's golden test:
//!
//! | target | regenerates |
//! |---|---|
//! | `table1_devices` | Table I (hardware parameters) |
//! | `table2_configs` | Table II (software configuration + model bounds) |
//! | `fig5_ld_kernel` | Fig. 5 (LD kernel throughput vs SNP strings) |
//! | `fig6_ld_end2end` | Fig. 6 (end-to-end LD vs CPU) |
//! | `fig7_scalability` | Fig. 7 (per-core scalability) |
//! | `fig8_fastid` | Fig. 8 (FastID 32 queries vs >20M profiles) |
//! | `fig9_andnot` | Fig. 9 (AND vs AND-NOT on one core) |
//! | `microbench_table` | §V-C/V-D instrument readings (footnote 1) |
//! | `ablation_report` | modeled ablations of the DESIGN.md §5 choices |
//! | `extensions_report` | streaming top-k, multi-GPU sharding, memory analysis |
//!
//! Every number is virtual (modeled) time, so each report is deterministic.

use std::fmt::Display;

mod ablation_report;
mod extensions_report;
mod fig5_ld_kernel;
mod fig6_ld_end2end;
mod fig7_scalability;
mod fig8_fastid;
mod fig9_andnot;
mod microbench_table;
mod table1_devices;
mod table2_configs;

pub use ablation_report::ablation_report;
pub use extensions_report::extensions_report;
pub use fig5_ld_kernel::fig5_ld_kernel;
pub use fig6_ld_end2end::fig6_ld_end2end;
pub use fig7_scalability::fig7_scalability;
pub use fig8_fastid::fig8_fastid;
pub use fig9_andnot::fig9_andnot;
pub use microbench_table::microbench_table;
pub use table1_devices::table1_devices;
pub use table2_configs::table2_configs;

/// Renders an aligned text table with a header row.
pub(crate) fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: Vec<String>, widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (cell, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {cell:>w$} |", w = w));
        }
        line.push('\n');
        line
    };
    out.push_str(&fmt_row(
        headers.iter().map(|s| s.to_string()).collect(),
        &widths,
    ));
    let mut sep = String::from("|");
    for w in &widths {
        sep.push_str(&format!("{}|", "-".repeat(w + 2)));
    }
    sep.push('\n');
    out.push_str(&sep);
    for row in rows {
        out.push_str(&fmt_row(row.clone(), &widths));
    }
    out
}

/// Formats a float with engineering-style precision.
pub(crate) fn eng(v: f64) -> String {
    if v == 0.0 {
        return "0".to_string();
    }
    let a = v.abs();
    if a >= 100.0 {
        format!("{v:.0}")
    } else if a >= 10.0 {
        format!("{v:.1}")
    } else if a >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.3}")
    }
}

/// Nanoseconds → human-readable duration.
pub(crate) fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Appends a section banner.
pub(crate) fn banner(out: &mut String, title: impl Display) {
    out.push_str(&format!("\n=== {title} ===\n\n"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let t = render_table(
            &["name", "v"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines.iter().all(|l| l.len() == lines[0].len()), "aligned");
        assert!(lines[0].contains("name"));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_rejected() {
        let _ = render_table(&["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    fn eng_formatting() {
        assert_eq!(eng(0.0), "0");
        assert_eq!(eng(1234.6), "1235");
        assert_eq!(eng(12.34), "12.3");
        assert_eq!(eng(1.234), "1.23");
        assert_eq!(eng(0.1234), "0.123");
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_ns(500.0), "500 ns");
        assert_eq!(fmt_ns(1.5e3), "1.50 us");
        assert_eq!(fmt_ns(2.5e6), "2.50 ms");
        assert_eq!(fmt_ns(3.0e9), "3.00 s");
    }
}
