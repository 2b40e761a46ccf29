//! The unified rule registry: every stable diagnostic code the workspace
//! can emit, across all three ranges (`QC00xx` structural, `QA01xx`
//! circuit-semantic, `QP02xx` fused-plan), with its severity and a
//! one-line summary.
//!
//! `DIAGNOSTICS.md` at the repo root is *generated* from this table
//! ([`diagnostics_markdown`]); the `diagnostics_sync` test fails when the
//! file and the registry drift, and prints the document to paste. Add a
//! code here in the same change that introduces its first emit site.

use qsim_circuit::circuit::codes as qc;

/// One registered diagnostic rule.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Stable code (`QC0001`, …). Never renumbered; retired codes are
    /// removed from emit sites but stay reserved.
    pub code: &'static str,
    /// Short kebab-case rule name.
    pub name: &'static str,
    /// Severity as emitted ("error", "warning", "note", or a split like
    /// "error / warning" when the rule grades by evidence).
    pub severity: &'static str,
    /// One-line summary of what the rule fires on.
    pub summary: &'static str,
}

/// Every stable diagnostic code, ordered by range then number. The
/// `diagnostics_sync` test checks this list against the actual code
/// constants declared across the workspace.
pub const RULES: &[RuleInfo] = &[
    // QC00xx — circuit structure (qsim_circuit::circuit::codes).
    RuleInfo {
        code: qc::ARITY_MISMATCH,
        name: "arity-mismatch",
        severity: "error",
        summary: "Gate arity does not match its operand count.",
    },
    RuleInfo {
        code: qc::QUBIT_OUT_OF_RANGE,
        name: "qubit-out-of-range",
        severity: "error",
        summary: "Qubit index is `>= num_qubits`.",
    },
    RuleInfo {
        code: qc::DUPLICATE_QUBIT,
        name: "duplicate-qubit",
        severity: "error",
        summary: "Qubit repeated within one op's target operands.",
    },
    RuleInfo {
        code: qc::CONTROL_TARGET_OVERLAP,
        name: "control-target-overlap",
        severity: "error",
        summary: "Control qubit also appears as a target.",
    },
    RuleInfo {
        code: qc::TIME_REGRESSION,
        name: "time-regression",
        severity: "error",
        summary: "Op time decreases relative to a preceding op.",
    },
    RuleInfo {
        code: qc::SLICE_CONFLICT,
        name: "slice-conflict",
        severity: "error",
        summary: "Qubit touched by two ops in the same time slice.",
    },
    // QA01xx — circuit semantics (crate::codes).
    RuleInfo {
        code: crate::codes::NON_UNITARY_GATE,
        name: "non-unitary-gate",
        severity: "error",
        summary: "A gate matrix is not unitary within the f64 tolerance.",
    },
    RuleInfo {
        code: crate::codes::UNITARITY_F32_LOSS,
        name: "unitarity-f32-loss",
        severity: "warning",
        summary: "A gate is unitary in f64 but drifts past tolerance when cast to f32.",
    },
    RuleInfo {
        code: crate::codes::IDENTITY_GATE,
        name: "identity-gate",
        severity: "warning / note",
        summary: "A gate acts as the identity (explicit `id` warns; zero-angle rotation notes).",
    },
    RuleInfo {
        code: crate::codes::GATE_AFTER_MEASUREMENT,
        name: "gate-after-measurement",
        severity: "warning",
        summary: "A unitary gate acts on a qubit after that qubit was measured.",
    },
    RuleInfo {
        code: crate::codes::EMPTY_CIRCUIT,
        name: "empty-circuit",
        severity: "warning",
        summary: "The circuit contains no operations.",
    },
    // QP02xx — fused plans (crate::codes).
    RuleInfo {
        code: crate::codes::PLAN_MALFORMED_QUBITS,
        name: "plan-malformed-qubits",
        severity: "error",
        summary: "A fused gate's qubit list is empty, unsorted, duplicated, or out of range.",
    },
    RuleInfo {
        code: crate::codes::PLAN_MATRIX_DIM_MISMATCH,
        name: "plan-matrix-dim-mismatch",
        severity: "error",
        summary: "A fused gate's matrix dimension disagrees with its qubit count.",
    },
    RuleInfo {
        code: crate::codes::PLAN_WIDTH_EXCEEDS_KERNEL,
        name: "plan-width-exceeds-kernel",
        severity: "error",
        summary: "A fused gate is wider than the kernels support.",
    },
    RuleInfo {
        code: crate::codes::PLAN_FUSION_BUDGET_EXCEEDED,
        name: "plan-fusion-budget-exceeded",
        severity: "error",
        summary: "The fuser merged gates past the plan's own `max_fused_qubits` budget.",
    },
    RuleInfo {
        code: crate::codes::PLAN_NON_UNITARY,
        name: "plan-non-unitary",
        severity: "error",
        summary: "A fused product is not unitary — fusion destroyed norm preservation.",
    },
    RuleInfo {
        code: crate::codes::PLAN_UNITARITY_F32_LOSS,
        name: "plan-unitarity-f32-loss",
        severity: "warning",
        summary: "A fused product is unitary in f64 but drifts past tolerance in f32.",
    },
    RuleInfo {
        code: crate::codes::PLAN_TIME_RANGE_INVERTED,
        name: "plan-time-range-inverted",
        severity: "error",
        summary: "A fused gate's `(first, last)` source-time range is inverted.",
    },
    RuleInfo {
        code: crate::codes::PLAN_MEASUREMENT_ORDER,
        name: "plan-measurement-order",
        severity: "error",
        summary: "Measurement barriers appear out of time order in the plan.",
    },
    RuleInfo {
        code: crate::codes::PLAN_SOURCE_MISMATCH,
        name: "plan-source-mismatch",
        severity: "error",
        summary: "The plan disagrees with its source circuit's qubit/gate/barrier accounting.",
    },
    RuleInfo {
        code: crate::codes::PLAN_EQUIVALENCE_DIVERGED,
        name: "plan-equivalence-diverged",
        severity: "error",
        summary: "Probe states evolved through the plan diverge from the source circuit.",
    },
    RuleInfo {
        code: crate::codes::PLAN_EQUIVALENCE_SKIPPED,
        name: "plan-equivalence-skipped",
        severity: "note",
        summary: "The probe-state equivalence check was skipped (register too large).",
    },
    RuleInfo {
        code: crate::codes::PLAN_SWEEP_ACCOUNTING,
        name: "plan-sweep-accounting",
        severity: "error",
        summary: "Sweep pass accounting is inconsistent with the block-locality predicate.",
    },
    RuleInfo {
        code: crate::codes::PLAN_SWEEP_BARRIER_HEAVY,
        name: "plan-sweep-barrier-heavy",
        severity: "note",
        summary: "Most passes are sweep barriers — the cache-blocked sweep cannot help.",
    },
    RuleInfo {
        code: crate::codes::PLAN_IDENTITY_PASS,
        name: "plan-identity-pass",
        severity: "warning",
        summary: "A fused product collapsed to the identity: a full state pass doing nothing. Read off the composed matrix, which composes only when a probe vector, within a stated rounding bound, cannot rule the identity out (DESIGN.md §7.1).",
    },
];

/// Range prefix → (section title, one-line layer description).
const RANGES: &[(&str, &str, &str)] = &[
    ("QC00", "QC00xx — circuit structure", "`Circuit::validate`; structural well-formedness."),
    ("QA01", "QA01xx — circuit semantics", "`qsim-analyze` circuit rules; run by `qsim_base analyze` and every backend's pre-run gate."),
    ("QP02", "QP02xx — fused plans", "`qsim-analyze` plan rules; the fusion planner's output contract."),
];

/// Render the registry as the full `DIAGNOSTICS.md` document. The output
/// is byte-stable for a given registry: the checked-in file must equal
/// it exactly.
pub fn diagnostics_markdown() -> String {
    let mut out = String::new();
    out.push_str(
        "# Diagnostic codes\n\
         \n\
         <!-- GENERATED FILE — do not edit by hand.\n\
         \x20    Source of truth: crates/qsim-analyze/src/registry.rs (RULES).\n\
         \x20    The diagnostics_sync test diffs this file and prints the document\n\
         \x20    to paste when it drifts. -->\n\
         \n\
         Every stable diagnostic code the workspace emits, generated from the\n\
         rule registry in `qsim-analyze`. Codes are stable identifiers: tests\n\
         and `--json` consumers match on them, so codes are never renumbered —\n\
         retired codes stay reserved. Severity `error` fails gates outright;\n\
         `warning` fails them under `--deny-warnings`; `note` is informational.\n",
    );
    for (prefix, title, blurb) in RANGES {
        out.push_str("\n## ");
        out.push_str(title);
        out.push_str("\n\n");
        out.push_str(blurb);
        out.push_str("\n\n| Code | Rule | Severity | Summary |\n|---|---|---|---|\n");
        for rule in RULES.iter().filter(|r| r.code.starts_with(prefix)) {
            out.push_str(&format!(
                "| `{}` | {} | {} | {} |\n",
                rule.code, rule.name, rule.severity, rule.summary
            ));
        }
    }
    out.push_str(
        "\n## QL03xx — retired\n\
         \n\
         The eight codes of this range were the source-level concurrency lints of\n\
         the deleted workspace linter; the range stays reserved and is never\n\
         reused. DESIGN.md §7.2 names what enforces each rule now.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_sorted_and_in_a_known_range() {
        // Order is (documented range, number) — QC before QA before QP,
        // which is not plain lexicographic order.
        let rank = |code: &str| {
            RANGES
                .iter()
                .position(|(p, _, _)| code.starts_with(p))
                .unwrap_or_else(|| panic!("{code} belongs to no documented range"))
        };
        let mut seen = std::collections::HashSet::new();
        let mut prev: Option<&RuleInfo> = None;
        for rule in RULES {
            assert!(seen.insert(rule.code), "duplicate code {}", rule.code);
            if let Some(prev) = prev {
                assert!(
                    (rank(prev.code), prev.code) < (rank(rule.code), rule.code),
                    "{} out of order after {}",
                    rule.code,
                    prev.code
                );
            }
            prev = Some(rule);
        }
    }

    #[test]
    fn markdown_lists_every_rule_exactly_once() {
        let md = diagnostics_markdown();
        for rule in RULES {
            let needle = format!("| `{}` |", rule.code);
            assert_eq!(md.matches(&needle).count(), 1, "{}", rule.code);
        }
    }
}
