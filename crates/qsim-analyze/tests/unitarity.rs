//! Property tests for the analyzer's semantic rules: every gate the
//! circuit library can emit is unitary under the rule's tolerances, and
//! seeded known-bad circuits trigger exactly the advertised codes.

use proptest::prelude::*;

use qsim_analyze::{codes, Analyzer};
use qsim_circuit::circuit::Circuit;
use qsim_circuit::gates::GateKind;
use qsim_circuit::library;
use qsim_core::sweep::SweepConfig;

/// Every parameterless gate plus parameterised kinds with the given
/// angles; returns `(kind, qubit_count)`.
fn gate_from(idx: usize, a: f64, b: f64) -> (GateKind, usize) {
    match idx {
        0 => (GateKind::Id, 1),
        1 => (GateKind::X, 1),
        2 => (GateKind::Y, 1),
        3 => (GateKind::Z, 1),
        4 => (GateKind::H, 1),
        5 => (GateKind::S, 1),
        6 => (GateKind::T, 1),
        7 => (GateKind::X12, 1),
        8 => (GateKind::Y12, 1),
        9 => (GateKind::Hz12, 1),
        10 => (GateKind::Rx(a), 1),
        11 => (GateKind::Ry(a), 1),
        12 => (GateKind::Rz(a), 1),
        13 => (GateKind::Rxy(a, b), 1),
        14 => (GateKind::Cz, 2),
        15 => (GateKind::Cnot, 2),
        16 => (GateKind::Swap, 2),
        17 => (GateKind::ISwap, 2),
        18 => (GateKind::CPhase(a), 2),
        _ => (GateKind::FSim(a, b), 2),
    }
}

fn codes_of(report: &qsim_analyze::AnalysisReport) -> Vec<&str> {
    report.diagnostics.iter().map(|d| d.code).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// No gate constructible from the library's `GateKind` set fails the
    /// unitarity rule — neither the f64 error nor the f32-loss warning.
    #[test]
    fn every_library_gate_is_unitary(
        idx in 0usize..20,
        a in -7.0f64..7.0,
        b in -7.0f64..7.0,
    ) {
        let (kind, nq) = gate_from(idx, a, b);
        let mut c = Circuit::new(2);
        c.add(0, kind, if nq == 1 { &[0][..] } else { &[0, 1][..] });
        let report = Analyzer::new().analyze_circuit(&c);
        let cs = codes_of(&report);
        prop_assert!(!cs.contains(&codes::NON_UNITARY_GATE), "{report:?}");
        prop_assert!(!cs.contains(&codes::UNITARITY_F32_LOSS), "{report:?}");
    }

    /// Random dense circuits pass the full pipeline (circuit rules, plan
    /// rules, and the small-circuit equivalence probe) with no errors at
    /// any fusion width.
    #[test]
    fn random_dense_circuits_analyze_clean(
        n in 2usize..=6,
        gates in 1usize..=30,
        seed in 0u64..1000,
        f in 1usize..=4,
    ) {
        let c = library::random_dense(n, gates, seed);
        let report = Analyzer::new().analyze(&c, f, SweepConfig::default());
        prop_assert!(!report.has_errors(), "n={n} gates={gates} seed={seed} f={f}:\n{}", report.render());
    }
}

#[test]
fn seeded_bad_circuits_trigger_expected_codes() {
    // Qubit out of range.
    let mut c = Circuit::new(2);
    c.add(0, GateKind::H, &[5]);
    assert!(codes_of(&Analyzer::new().analyze_circuit(&c)).contains(&"QC0002"));

    // Duplicate qubit within one op.
    let mut c = Circuit::new(2);
    c.add(0, GateKind::Cz, &[1, 1]);
    assert!(codes_of(&Analyzer::new().analyze_circuit(&c)).contains(&"QC0003"));

    // Explicit identity gate.
    let mut c = Circuit::new(1);
    c.add(0, GateKind::Id, &[0]);
    assert!(codes_of(&Analyzer::new().analyze_circuit(&c)).contains(&codes::IDENTITY_GATE));

    // Gate applied to an already-measured qubit.
    let mut c = Circuit::new(2);
    c.add(0, GateKind::Measurement, &[0]);
    c.add(1, GateKind::H, &[0]);
    assert!(codes_of(&Analyzer::new().analyze_circuit(&c)).contains(&codes::GATE_AFTER_MEASUREMENT));

    // Empty circuit.
    let report = Analyzer::new().analyze_circuit(&Circuit::new(3));
    assert!(codes_of(&report).contains(&codes::EMPTY_CIRCUIT));
}

#[test]
fn library_showpieces_are_clean() {
    for (name, c) in
        [("bell", library::bell()), ("ghz6", library::ghz(6)), ("qft5", library::qft(5))]
    {
        let report = Analyzer::new().analyze(&c, 2, SweepConfig::default());
        assert!(report.passes(true), "{name} not clean:\n{}", report.render());
    }
}

/// A NaN angle can only arrive programmatically (the parser rejects the
/// token); it must read as a non-unitary gate, never as a harmless
/// identity note.
#[test]
fn nan_parameter_is_a_non_unitary_error_not_an_identity_note() {
    for angle in [f64::NAN, f64::INFINITY] {
        let mut c = Circuit::new(2);
        c.add(0, GateKind::H, &[0]);
        c.add(1, GateKind::Rz(angle), &[1]);
        c.add(2, GateKind::Cz, &[0, 1]);
        let report = Analyzer::new().analyze_circuit(&c);
        assert!(report.has_errors(), "{}", report.render());
        assert!(report.render().contains("error[QA0101]"), "{}", report.render());
        assert!(!codes_of(&report).contains(&codes::IDENTITY_GATE), "{}", report.render());
    }
}

/// One NaN entry in a fused matrix rejects the plan at the pre-run gate,
/// and the full analyzer's probe states go NaN: the plan diverges from its
/// source (a NaN distance is not within tolerance).
#[test]
fn fused_gate_with_a_nan_entry_is_plan_non_unitary() {
    use qsim_core::matrix::GateMatrix;
    use qsim_core::types::Cplx;
    use qsim_fusion::{fuse, FusedGate, FusedOp};

    let c = library::ghz(3);
    let mut plan = fuse(&c, 2);
    let FusedOp::Unitary(g) =
        plan.ops.iter_mut().find(|op| matches!(op, FusedOp::Unitary(_))).expect("a unitary")
    else {
        unreachable!()
    };
    let mut entries = g.matrix().as_slice().to_vec();
    // An off-diagonal zero of the product: the old `f64::max` fold dropped it.
    let last = entries.len() - 2;
    entries[last] = Cplx::new(f64::NAN, 0.0);
    let matrix = GateMatrix::from_slice(g.matrix().dim(), &entries);
    *g = FusedGate::new(g.qubits.clone(), matrix, g.source_gates, g.time_range);
    let report = Analyzer::pre_run().analyze_plan(&plan, Some(&c), SweepConfig::default());
    assert!(codes_of(&report).contains(&codes::PLAN_NON_UNITARY), "{}", report.render());
    assert!(!codes_of(&report).contains(&codes::PLAN_IDENTITY_PASS), "{}", report.render());
    let report = Analyzer::new().analyze_plan(&plan, Some(&c), SweepConfig::default());
    assert!(report.render().contains("error[QP0210]"), "{}", report.render());
}
