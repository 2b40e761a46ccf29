//! Typed diagnostics — the vocabulary of the static-analysis layer.
//!
//! A [`Diagnostic`] is a compiler-style finding: a stable code (`QC0002`),
//! a [`Severity`], a [`Span`] locating the offending gate in the circuit
//! (op index and/or time slice), a human message, and an optional help
//! string. The types live here, at the bottom of the crate stack, so that
//! `qsim-circuit` can report them from `Circuit::validate()` while the
//! rule engine in `qsim-analyze` builds on the same vocabulary without a
//! dependency cycle.
//!
//! Code ranges are allocated by producer:
//!
//! | Range | Producer | Subject |
//! |---|---|---|
//! | `QC00xx` | `qsim-circuit` | raw-circuit structural invariants |
//! | `QA01xx` | `qsim-analyze` | raw-circuit semantic lints |
//! | `QP02xx` | `qsim-analyze` | fused-plan (`FusedCircuit`) lints |
//! | `QL03xx` | — | retired (were source-level concurrency lints) |
//!
//! Codes are stable identifiers: tests, CI greps, and `--json` consumers
//! may match on them, so a code is never reused for a different finding.

use std::fmt;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: surfaced only in verbose output; never affects exit
    /// codes or the pre-run gate.
    Note,
    /// Suspicious but executable; rejected only under `--deny-warnings`.
    Warning,
    /// The circuit/plan is invalid; backends must refuse to execute it.
    Error,
}

impl Severity {
    /// Lowercase label used in human-readable and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Where in the circuit (or plan) a diagnostic points.
///
/// Raw circuits are located by op index and time slice; fused plans by the
/// plan op index and the `(first, last)` source-time range the fused gate
/// covers. Whole-circuit findings leave everything `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Span {
    /// Index into the op list (`Circuit::ops` or `FusedCircuit::ops`).
    pub op_index: Option<usize>,
    /// Source time slice (first slice of the range, for fused gates).
    pub time: Option<usize>,
}

impl Span {
    /// Span covering the whole circuit.
    pub fn whole_circuit() -> Span {
        Span::default()
    }

    /// Span of one op at a known time slice.
    pub fn op(op_index: usize, time: usize) -> Span {
        Span { op_index: Some(op_index), time: Some(time) }
    }

    /// Span of one op whose time slice is unknown or meaningless.
    pub fn op_only(op_index: usize) -> Span {
        Span { op_index: Some(op_index), time: None }
    }
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.op_index, self.time) {
            (Some(i), Some(t)) => write!(f, "op {i} (time {t})"),
            (Some(i), None) => write!(f, "op {i}"),
            (None, Some(t)) => write!(f, "time {t}"),
            (None, None) => f.write_str("circuit"),
        }
    }
}

/// One finding of the analysis layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable code (`QC0002`, `QP0203`, …). Never reused across findings.
    pub code: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// Location in the circuit or plan.
    pub span: Span,
    /// Human-readable description of the concrete violation.
    pub message: String,
    /// Optional hint on how to fix or interpret the finding.
    pub help: Option<String>,
}

impl Diagnostic {
    /// Error diagnostic with no help text.
    pub fn error(code: &'static str, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic { code, severity: Severity::Error, span, message: message.into(), help: None }
    }

    /// Warning diagnostic with no help text.
    pub fn warning(code: &'static str, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic { code, severity: Severity::Warning, span, message: message.into(), help: None }
    }

    /// Note diagnostic with no help text.
    pub fn note(code: &'static str, span: Span, message: impl Into<String>) -> Diagnostic {
        Diagnostic { code, severity: Severity::Note, span, message: message.into(), help: None }
    }

    /// Attach a help string (builder style).
    pub fn with_help(mut self, help: impl Into<String>) -> Diagnostic {
        self.help = Some(help.into());
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] at {}: {}", self.severity, self.code, self.span, self.message)?;
        if let Some(h) = &self.help {
            write!(f, " (help: {h})")?;
        }
        Ok(())
    }
}

/// Join a diagnostic list into one readable multi-line string (the shim
/// used where an error type wants a single message).
pub fn render_list(diags: &[Diagnostic]) -> String {
    diags.iter().map(|d| d.to_string()).collect::<Vec<_>>().join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_orders_note_warning_error() {
        assert!(Severity::Note < Severity::Warning);
        assert!(Severity::Warning < Severity::Error);
        assert_eq!(Severity::Error.label(), "error");
    }

    #[test]
    fn span_display_forms() {
        assert_eq!(Span::op(3, 1).to_string(), "op 3 (time 1)");
        assert_eq!(Span::op_only(7).to_string(), "op 7");
        assert_eq!(Span::whole_circuit().to_string(), "circuit");
    }

    #[test]
    fn diagnostic_display_includes_code_and_help() {
        let d = Diagnostic::error("QC0002", Span::op(0, 0), "qubit 5 out of range")
            .with_help("the circuit declares 2 qubits");
        let s = d.to_string();
        assert!(s.contains("error[QC0002]"));
        assert!(s.contains("op 0 (time 0)"));
        assert!(s.contains("help: the circuit declares 2 qubits"));
    }

    #[test]
    fn render_list_joins_lines() {
        let ds = vec![
            Diagnostic::error("QC0001", Span::op_only(0), "a"),
            Diagnostic::warning("QA0103", Span::op_only(1), "b"),
        ];
        let s = render_list(&ds);
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains("warning[QA0103]"));
    }
}
