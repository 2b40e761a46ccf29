//! The analysis result container: diagnostics plus severity accounting,
//! with human-readable and JSON renderings for the CLI.

use qsim_core::diag::{Diagnostic, Severity};
use serde_json::{json, Value};

/// Everything one analysis pass found, in rule/op order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnalysisReport {
    /// All findings, in the order the rules emitted them.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// Empty report (a clean analysis).
    pub fn new() -> AnalysisReport {
        AnalysisReport::default()
    }

    /// Wrap an already-collected diagnostic list.
    pub fn from_diagnostics(diagnostics: Vec<Diagnostic>) -> AnalysisReport {
        AnalysisReport { diagnostics }
    }

    /// Append another report's findings (keeps emission order).
    pub fn extend(&mut self, other: AnalysisReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// Number of findings at exactly `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics.iter().filter(|d| d.severity == severity).count()
    }

    /// Whether any finding is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.diagnostics.iter().any(|d| d.severity == Severity::Error)
    }

    /// The worst severity present, or `None` for a clean report.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Exit-code policy: a report *passes* when it has no errors, and —
    /// under `deny_warnings` — no warnings either. Notes never fail.
    pub fn passes(&self, deny_warnings: bool) -> bool {
        if self.has_errors() {
            return false;
        }
        !deny_warnings || self.count(Severity::Warning) == 0
    }

    /// Findings at exactly `severity`, in emission order.
    pub fn at(&self, severity: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.iter().filter(move |d| d.severity == severity)
    }

    /// Human-readable rendering: one line per finding (worst first),
    /// then a summary line.
    pub fn render(&self) -> String {
        let mut lines: Vec<String> = Vec::with_capacity(self.diagnostics.len() + 1);
        for severity in [Severity::Error, Severity::Warning, Severity::Note] {
            lines.extend(self.at(severity).map(ToString::to_string));
        }
        lines.push(self.summary());
        lines.join("\n")
    }

    /// The one-line summary (`"2 errors, 1 warning, 0 notes"` or
    /// `"no findings"`).
    pub fn summary(&self) -> String {
        if self.diagnostics.is_empty() {
            return "no findings".to_string();
        }
        let plural = |n: usize, word: &str| format!("{n} {word}{}", if n == 1 { "" } else { "s" });
        format!(
            "{}, {}, {}",
            plural(self.count(Severity::Error), "error"),
            plural(self.count(Severity::Warning), "warning"),
            plural(self.count(Severity::Note), "note")
        )
    }

    /// JSON rendering for `analyze --json`: stable field names, findings
    /// in emission order.
    pub fn to_json(&self) -> Value {
        let findings: Vec<Value> = self.diagnostics.iter().map(diag_json).collect();
        json!({
            "errors": (self.count(Severity::Error)),
            "warnings": (self.count(Severity::Warning)),
            "notes": (self.count(Severity::Note)),
            "findings": (Value::Array(findings)),
        })
    }
}

fn diag_json(d: &Diagnostic) -> Value {
    json!({
        "code": (d.code),
        "severity": (d.severity.label()),
        "op_index": (d.span.op_index),
        "time": (d.span.time),
        "message": (d.message.as_str()),
        "help": (d.help.as_deref()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_core::diag::Span;

    fn sample() -> AnalysisReport {
        AnalysisReport::from_diagnostics(vec![
            Diagnostic::note("QP0213", Span::whole_circuit(), "barrier heavy"),
            Diagnostic::error("QA0101", Span::op(2, 1), "not unitary").with_help("check matrix"),
            Diagnostic::warning("QA0103", Span::op_only(0), "identity gate"),
        ])
    }

    #[test]
    fn counts_and_severity() {
        let r = sample();
        assert_eq!(r.count(Severity::Error), 1);
        assert_eq!(r.count(Severity::Warning), 1);
        assert_eq!(r.count(Severity::Note), 1);
        assert!(r.has_errors());
        assert_eq!(r.max_severity(), Some(Severity::Error));
        assert_eq!(AnalysisReport::new().max_severity(), None);
    }

    #[test]
    fn pass_policy() {
        let r = sample();
        assert!(!r.passes(false));
        let warn_only = AnalysisReport::from_diagnostics(vec![Diagnostic::warning(
            "QA0103",
            Span::op_only(0),
            "identity",
        )]);
        assert!(warn_only.passes(false));
        assert!(!warn_only.passes(true));
        let note_only = AnalysisReport::from_diagnostics(vec![Diagnostic::note(
            "QP0213",
            Span::whole_circuit(),
            "hint",
        )]);
        assert!(note_only.passes(true));
    }

    #[test]
    fn render_orders_worst_first() {
        let text = sample().render();
        let err = text.find("error[QA0101]").unwrap();
        let warn = text.find("warning[QA0103]").unwrap();
        let note = text.find("note[QP0213]").unwrap();
        assert!(err < warn && warn < note);
        assert!(text.ends_with("1 error, 1 warning, 1 note"));
        assert_eq!(AnalysisReport::new().render(), "no findings");
    }

    #[test]
    fn json_shape_roundtrips() {
        let v = sample().to_json();
        let s = serde_json::to_string_pretty(&v).unwrap();
        let back: Value = serde_json::from_str(&s).unwrap();
        assert_eq!(back, v);
        let obj = match v {
            Value::Object(fields) => fields,
            other => panic!("expected object, got {other:?}"),
        };
        let get = |k: &str| obj.iter().find(|(key, _)| key == k).map(|(_, v)| v.clone()).unwrap();
        assert_eq!(get("errors"), Value::Number(1.0));
        let findings = match get("findings") {
            Value::Array(a) => a,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(findings.len(), 3);
        let s = serde_json::to_string(&findings[1]).unwrap();
        assert!(s.contains("\"code\":\"QA0101\""));
        assert!(s.contains("\"op_index\":2"));
        assert!(s.contains("\"help\":\"check matrix\""));
        // Whole-circuit spans serialize as nulls.
        let s0 = serde_json::to_string(&findings[0]).unwrap();
        assert!(s0.contains("\"op_index\":null"));
    }
}
