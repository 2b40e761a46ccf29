//! # qsim-analyze
//!
//! Compiler-style static analysis for circuits and fused execution plans.
//!
//! The engine mirrors how a compiler front-end is organized: independent
//! *lint rules* walk a [`Circuit`] or a [`FusedCircuit`] and report typed
//! [`Diagnostic`]s (stable code, severity, span, message, optional help)
//! into an [`AnalysisReport`]. Rules never abort analysis — every rule runs
//! and every finding is collected, so one `analyze` pass shows the whole
//! picture instead of the first failure.
//!
//! Two rule families exist:
//!
//! * [`CircuitRule`]s lint the raw gate list: structural invariants
//!   (delegated to [`Circuit::validate`], `QC00xx` codes), matrix unitarity
//!   in both working precisions, dead/identity gates, gates acting on
//!   already-measured qubits (`QA01xx` codes);
//! * [`PlanRule`]s lint the fuser's output: well-formed qubit sets, matrix
//!   dimensions, fusion-budget legality, norm preservation of the fused
//!   products, measurement ordering, source-gate accounting, sweep-barrier
//!   accounting against [`qsim_core::sweep`], and (for small registers) a
//!   probe-state equivalence check of plan vs. source (`QP02xx` codes).
//!
//! Registries come in two sizes: [`Analyzer::new`] holds every rule and
//! backs the `qsim_base analyze` subcommand; [`Analyzer::pre_run`] holds
//! the cheap plan rules only and is what `qsim-backends` executes before
//! allocating state — a non-unitary or malformed plan is rejected before
//! any memory is touched.
//!
//! Diagnostic code ranges are documented in [`qsim_core::diag`]; the codes
//! themselves are in [`codes`]. Codes are stable: tests and `--json`
//! consumers match on them.

use qsim_circuit::circuit::Circuit;
use qsim_core::diag::Diagnostic;
use qsim_core::sweep::SweepConfig;
use qsim_fusion::FusedCircuit;

pub mod registry;
pub mod report;
pub mod rules;

pub use report::AnalysisReport;

/// Stable diagnostic codes emitted by this crate (`QA01xx` for raw-circuit
/// semantic lints, `QP02xx` for fused-plan lints). Structural `QC00xx`
/// codes live in [`qsim_circuit::circuit::codes`].
pub mod codes {
    /// A gate matrix is not unitary within [`crate::UNITARY_TOL_F64`].
    pub const NON_UNITARY_GATE: &str = "QA0101";
    /// A gate matrix is unitary in `f64` but drifts past
    /// [`crate::UNITARY_TOL_F32`] when cast to `f32`.
    pub const UNITARITY_F32_LOSS: &str = "QA0102";
    /// A gate acts as the identity (explicit `id` or zero-angle rotation).
    pub const IDENTITY_GATE: &str = "QA0103";
    /// A unitary gate acts on a qubit after that qubit was measured.
    pub const GATE_AFTER_MEASUREMENT: &str = "QA0104";
    /// The circuit contains no operations.
    pub const EMPTY_CIRCUIT: &str = "QA0105";

    /// A fused gate's qubit list is empty, unsorted, duplicated, or out of
    /// range.
    pub const PLAN_MALFORMED_QUBITS: &str = "QP0201";
    /// A fused gate's matrix dimension disagrees with its qubit count.
    pub const PLAN_MATRIX_DIM_MISMATCH: &str = "QP0202";
    /// A fused gate is wider than the kernels support
    /// ([`qsim_core::kernels::MAX_GATE_QUBITS`]).
    pub const PLAN_WIDTH_EXCEEDS_KERNEL: &str = "QP0203";
    /// The fuser merged gates into a product wider than the plan's own
    /// `max_fused_qubits` budget.
    pub const PLAN_FUSION_BUDGET_EXCEEDED: &str = "QP0204";
    /// A fused product is not unitary within [`crate::PLAN_UNITARY_TOL_F64`]
    /// — fusion destroyed norm preservation.
    pub const PLAN_NON_UNITARY: &str = "QP0205";
    /// A fused product is unitary in `f64` but drifts past
    /// [`crate::UNITARY_TOL_F32`] in `f32`.
    pub const PLAN_UNITARITY_F32_LOSS: &str = "QP0206";
    /// A fused gate's `(first, last)` source-time range is inverted.
    pub const PLAN_TIME_RANGE_INVERTED: &str = "QP0207";
    /// Measurement barriers appear out of time order in the plan.
    pub const PLAN_MEASUREMENT_ORDER: &str = "QP0208";
    /// The plan disagrees with its source circuit (qubit count, folded
    /// gate accounting, or measurement barriers).
    pub const PLAN_SOURCE_MISMATCH: &str = "QP0209";
    /// Probe states evolved through the plan diverge from the source
    /// circuit — the plan is not equivalent to what it claims to compile.
    pub const PLAN_EQUIVALENCE_DIVERGED: &str = "QP0210";
    /// The probe-state equivalence check was skipped (register too large).
    pub const PLAN_EQUIVALENCE_SKIPPED: &str = "QP0211";
    /// A fused product collapsed to the identity: the gates cancelled,
    /// and the plan spends a full pass over the state doing nothing.
    pub const PLAN_IDENTITY_PASS: &str = "QP0214";
    /// Sweep pass accounting is internally inconsistent with the
    /// block-locality predicate.
    pub const PLAN_SWEEP_ACCOUNTING: &str = "QP0212";
    /// Most passes are sweep barriers — the cache-blocked sweep cannot
    /// help this plan (performance hint, never an error).
    pub const PLAN_SWEEP_BARRIER_HEAVY: &str = "QP0213";
}

/// Unitarity tolerance for `f64` gate matrices (`‖U†U − I‖∞`).
pub const UNITARY_TOL_F64: f64 = 1e-9;
/// Unitarity tolerance after casting to `f32` — loose enough for rounding,
/// tight enough to catch real norm loss.
pub const UNITARY_TOL_F32: f64 = 1e-4;
/// Unitarity tolerance for fused products in `f64`: matrix products of
/// long gate chains accumulate rounding, so this is looser than
/// [`UNITARY_TOL_F64`].
pub const PLAN_UNITARY_TOL_F64: f64 = 1e-8;
/// Largest register the probe-state equivalence rule simulates (the check
/// is `O(gates · 2^n)`; beyond this it reports [`codes::PLAN_EQUIVALENCE_SKIPPED`]).
pub const EQUIVALENCE_MAX_QUBITS: usize = 10;
/// Probe-state divergence tolerance (max absolute amplitude difference).
pub const EQUIVALENCE_TOL: f64 = 1e-9;

/// Context handed to every [`CircuitRule`].
#[derive(Debug, Clone, Copy)]
pub struct CircuitCtx<'a> {
    /// The circuit under analysis.
    pub circuit: &'a Circuit,
}

/// Context handed to every [`PlanRule`].
#[derive(Debug, Clone, Copy)]
pub struct PlanCtx<'a> {
    /// The fused plan under analysis.
    pub plan: &'a FusedCircuit,
    /// The source circuit the plan was fused from, when the caller has it
    /// (the backend pre-run gate does not). Source-accounting and
    /// equivalence rules no-op without it.
    pub source: Option<&'a Circuit>,
    /// Sweep configuration the plan would execute under.
    pub sweep: SweepConfig,
}

/// A lint over a raw [`Circuit`]. Rules append findings and never fail.
pub trait CircuitRule {
    /// Stable rule name (kebab-case, shown in verbose listings).
    fn name(&self) -> &'static str;
    /// Run the rule, appending findings to `out`.
    fn check(&self, ctx: &CircuitCtx<'_>, out: &mut Vec<Diagnostic>);
}

/// A lint over a [`FusedCircuit`] execution plan.
pub trait PlanRule {
    /// Stable rule name (kebab-case, shown in verbose listings).
    fn name(&self) -> &'static str;
    /// Run the rule, appending findings to `out`.
    fn check(&self, ctx: &PlanCtx<'_>, out: &mut Vec<Diagnostic>);
}

/// A rule registry: the unit of "which lints run".
pub struct Analyzer {
    circuit_rules: Vec<Box<dyn CircuitRule>>,
    plan_rules: Vec<Box<dyn PlanRule>>,
}

impl Default for Analyzer {
    fn default() -> Self {
        Analyzer::new()
    }
}

impl Analyzer {
    /// The full registry: every circuit rule and every plan rule,
    /// including the `O(2^n)`-bounded probe-equivalence check. This is
    /// what `qsim_base analyze` runs.
    pub fn new() -> Analyzer {
        let mut a = Analyzer::pre_run();
        a.circuit_rules = vec![
            Box::new(rules::Structure),
            Box::new(rules::Unitarity),
            Box::new(rules::IdentityGate),
            Box::new(rules::GateAfterMeasurement),
            Box::new(rules::EmptyCircuit),
        ];
        a.plan_rules.push(Box::new(rules::PlanEquivalence));
        a
    }

    /// The cheap registry the backends run before allocating state: plan
    /// rules only (the backend never sees the raw circuit), excluding the
    /// probe-equivalence simulation. Every rule here is at most
    /// `O(gates · 64³)` — independent of `2^n`.
    pub fn pre_run() -> Analyzer {
        Analyzer {
            circuit_rules: Vec::new(),
            plan_rules: vec![
                Box::new(rules::PlanShape),
                Box::new(rules::PlanUnitarity),
                Box::new(rules::PlanMeasurementOrder),
                Box::new(rules::PlanSourceAccounting),
                Box::new(rules::PlanSweep),
            ],
        }
    }

    /// Registered rule names, circuit rules first (for `--verbose`
    /// listings and tests).
    pub fn rule_names(&self) -> Vec<&'static str> {
        self.circuit_rules
            .iter()
            .map(|r| r.name())
            .chain(self.plan_rules.iter().map(|r| r.name()))
            .collect()
    }

    /// Run every registered circuit rule over `circuit`.
    pub fn analyze_circuit(&self, circuit: &Circuit) -> AnalysisReport {
        let ctx = CircuitCtx { circuit };
        let mut out = Vec::new();
        for rule in &self.circuit_rules {
            rule.check(&ctx, &mut out);
        }
        AnalysisReport::from_diagnostics(out)
    }

    /// Run every registered plan rule over `plan`. Pass the source circuit
    /// when available so accounting/equivalence rules can cross-check.
    pub fn analyze_plan(
        &self,
        plan: &FusedCircuit,
        source: Option<&Circuit>,
        sweep: SweepConfig,
    ) -> AnalysisReport {
        let ctx = PlanCtx { plan, source, sweep };
        let mut out = Vec::new();
        for rule in &self.plan_rules {
            rule.check(&ctx, &mut out);
        }
        AnalysisReport::from_diagnostics(out)
    }

    /// The end-to-end pipeline behind `qsim_base analyze`: lint the raw
    /// circuit, and — unless the circuit itself has errors (fusing an
    /// invalid circuit is undefined) — fuse it with `max_fused_qubits` and
    /// lint the resulting plan against the source. Returns one combined
    /// report.
    pub fn analyze(
        &self,
        circuit: &Circuit,
        max_fused_qubits: usize,
        sweep: SweepConfig,
    ) -> AnalysisReport {
        let mut report = self.analyze_circuit(circuit);
        if !report.has_errors() {
            let plan = qsim_fusion::fuse(circuit, max_fused_qubits);
            report.extend(self.analyze_plan(&plan, Some(circuit), sweep));
        }
        report
    }

    /// Like [`Analyzer::analyze`], but over a plan the caller already
    /// fused — e.g. one produced by the cost-model planner
    /// ([`qsim_fusion::plan`]) rather than the default greedy fuser.
    /// Lints the raw circuit, then — unless the circuit itself has errors
    /// — the given plan against it. Returns one combined report.
    pub fn analyze_fused(
        &self,
        circuit: &Circuit,
        plan: &FusedCircuit,
        sweep: SweepConfig,
    ) -> AnalysisReport {
        let mut report = self.analyze_circuit(circuit);
        if !report.has_errors() {
            report.extend(self.analyze_plan(plan, Some(circuit), sweep));
        }
        report
    }
}

impl std::fmt::Debug for Analyzer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Analyzer")
            .field("circuit_rules", &self.circuit_rules.len())
            .field("plan_rules", &self.plan_rules.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_circuit::gates::GateKind;
    use qsim_circuit::library;
    use qsim_core::diag::Severity;

    fn codes_of(report: &AnalysisReport) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn library_circuits_are_clean() {
        let a = Analyzer::new();
        for (name, c) in [
            ("bell", library::bell()),
            ("ghz", library::ghz(6)),
            ("qft", library::qft(5)),
            ("random_dense", library::random_dense(7, 40, 11)),
        ] {
            for f in [1, 2, 4] {
                let r = a.analyze(&c, f, SweepConfig::default());
                assert!(
                    !r.has_errors() && r.count(Severity::Warning) == 0,
                    "{name} f={f} not clean:\n{}",
                    r.render()
                );
            }
        }
    }

    #[test]
    fn full_registry_lists_all_rules() {
        let names = Analyzer::new().rule_names();
        assert!(names.contains(&"circuit-structure"));
        assert!(names.contains(&"plan-equivalence"));
        assert!(names.len() > Analyzer::pre_run().rule_names().len());
    }

    #[test]
    fn invalid_circuit_reports_structure_and_skips_plan() {
        let mut c = Circuit::new(2);
        c.add(0, GateKind::H, &[5]);
        let r = Analyzer::new().analyze(&c, 2, SweepConfig::default());
        assert!(r.has_errors());
        assert!(codes_of(&r).contains(&qsim_circuit::circuit::codes::QUBIT_OUT_OF_RANGE));
        // No plan diagnostics: fusion is skipped for invalid circuits.
        assert!(codes_of(&r).iter().all(|c| !c.starts_with("QP")));
    }

    #[test]
    fn identity_gate_flagged() {
        let mut c = Circuit::new(1);
        c.add(0, GateKind::Id, &[0]);
        let r = Analyzer::new().analyze_circuit(&c);
        assert!(codes_of(&r).contains(&codes::IDENTITY_GATE));
        assert!(!r.has_errors());
    }

    #[test]
    fn gate_after_measurement_flagged() {
        let mut c = Circuit::new(2);
        c.add(0, GateKind::H, &[0]);
        c.add(1, GateKind::Measurement, &[0]);
        c.add(2, GateKind::X, &[0]);
        let r = Analyzer::new().analyze_circuit(&c);
        assert!(codes_of(&r).contains(&codes::GATE_AFTER_MEASUREMENT));
        // Same gate on the *other* qubit is fine.
        let mut c2 = Circuit::new(2);
        c2.add(0, GateKind::H, &[0]);
        c2.add(1, GateKind::Measurement, &[0]);
        c2.add(2, GateKind::X, &[1]);
        let r2 = Analyzer::new().analyze_circuit(&c2);
        assert!(!codes_of(&r2).contains(&codes::GATE_AFTER_MEASUREMENT));
    }

    #[test]
    fn empty_circuit_flagged() {
        let r = Analyzer::new().analyze_circuit(&Circuit::new(3));
        assert_eq!(codes_of(&r), vec![codes::EMPTY_CIRCUIT]);
    }

    #[test]
    fn fused_plans_of_good_circuits_are_clean() {
        let c = qsim_circuit::generate_rqc(&qsim_circuit::RqcOptions::for_qubits(10, 8, 7));
        let a = Analyzer::new();
        for f in 1..=6 {
            let plan = qsim_fusion::fuse(&c, f);
            let r = a.analyze_plan(&plan, Some(&c), SweepConfig::default());
            assert!(!r.has_errors(), "f={f}:\n{}", r.render());
        }
    }

    #[test]
    fn pre_run_registry_has_no_circuit_rules_and_no_probe() {
        let names = Analyzer::pre_run().rule_names();
        assert!(!names.contains(&"plan-equivalence"));
        assert!(names.iter().all(|n| n.starts_with("plan-")));
    }
}
