//! Diagnostics shared by the race detector and the kernel linter.
//!
//! Every finding carries a stable code (`V0xx` for command-DAG findings,
//! `V1xx` for kernel/ISA findings) so reports are machine-checkable: CI
//! greps for codes, tests assert on them, and the catalog in DESIGN.md §9
//! documents each one.

use std::fmt;

/// How serious a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Informational: stream facts worth surfacing (overlap statistics,
    /// transitively redundant waits). Never fails a build.
    Info,
    /// Suspicious but not provably wrong (dead events, zero-trip blocks).
    Warning,
    /// A provable defect: an ordering hazard or a plan that violates a
    /// device limit.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Info => write!(f, "info"),
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One finding from an analyzer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code, e.g. `V001-RAW`.
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Human-readable description.
    pub message: String,
    /// Enqueue-order indices of the commands involved (empty for kernel
    /// lints).
    pub commands: Vec<usize>,
    /// Index of the buffer involved, if the finding concerns one.
    pub buffer: Option<usize>,
}

impl Diagnostic {
    /// Builds a diagnostic without location payload.
    pub fn new(code: &'static str, severity: Severity, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity,
            message: message.into(),
            commands: Vec::new(),
            buffer: None,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}] {}", self.severity, self.code, self.message)
    }
}

/// The outcome of one analyzer run: an ordered list of diagnostics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// All findings, in analyzer order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// Appends every diagnostic of `other`.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Number of diagnostics at exactly `sev`.
    pub fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == sev)
            .count()
    }

    /// True if any finding is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.count(Severity::Error) > 0
    }

    /// True if the report would fail a strict gate: any error or warning.
    /// Infos never block.
    pub fn has_blocking(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity >= Severity::Warning)
    }

    /// Findings with `code`.
    pub fn with_code<'a>(&'a self, code: &'a str) -> impl Iterator<Item = &'a Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// Multi-line human-readable rendering; `label` names what was checked.
    pub fn render_text(&self, label: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{label}: {} error(s), {} warning(s), {} note(s)\n",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        ));
        for d in &self.diagnostics {
            out.push_str(&format!("  {d}\n"));
        }
        out
    }
}

/// A report promoted to an error: carried when a verification gate fails,
/// so diagnostics compose with `?` like any other error.
#[derive(Debug, Clone)]
pub struct VerifyError {
    /// The findings that failed the gate.
    pub report: Report,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let blocking: Vec<&Diagnostic> = self
            .report
            .diagnostics
            .iter()
            .filter(|d| d.severity >= Severity::Warning)
            .collect();
        write!(f, "verification failed with {} finding(s):", blocking.len())?;
        for d in blocking {
            write!(f, " {d};")?;
        }
        Ok(())
    }
}

impl std::error::Error for VerifyError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        Report {
            diagnostics: vec![
                Diagnostic::new("V001-RAW", Severity::Error, "a \"raw\" hazard"),
                Diagnostic::new("V004-UNUSED-EVENT", Severity::Warning, "dead event"),
                Diagnostic::new("V006-OVERLAP", Severity::Info, "3 overlapping pairs"),
            ],
        }
    }

    #[test]
    fn counts_and_gates() {
        let r = sample();
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.count(Severity::Warning), 1);
        assert_eq!(r.count(Severity::Info), 1);
        assert!(r.has_errors());
        assert!(r.has_blocking());
        let infos_only = Report {
            diagnostics: vec![Diagnostic::new("V006-OVERLAP", Severity::Info, "x")],
        };
        assert!(!infos_only.has_blocking());
    }

    #[test]
    fn text_renders() {
        let r = sample();
        let text = r.render_text("stream");
        assert!(text.contains("1 error(s), 1 warning(s), 1 note(s)"));
        assert!(text.contains("error [V001-RAW]"));
    }

    #[test]
    fn verify_error_displays_blocking_findings_only() {
        let e = VerifyError { report: sample() };
        let s = e.to_string();
        assert!(s.contains("2 finding(s)"));
        assert!(s.contains("V001-RAW") && s.contains("V004-UNUSED-EVENT"));
        assert!(!s.contains("V006-OVERLAP"));
        let _: &dyn std::error::Error = &e;
    }
}
