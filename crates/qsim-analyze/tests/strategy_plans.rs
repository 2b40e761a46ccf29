//! The analyzer must accept plans from every fusion strategy: whatever
//! the cost model decides to merge, the resulting plan is still a legal,
//! unitary, source-accounted execution plan — both under the full
//! `analyze`-subcommand rule set and the backends' cheap pre-run gate.

use gpu_model::specs::DeviceSpec;
use qsim_analyze::Analyzer;
use qsim_circuit::circuit::Circuit;
use qsim_circuit::gates::GateKind;
use qsim_circuit::library;
use qsim_core::sweep::SweepConfig;
use qsim_core::types::Precision;
use qsim_fusion::{plan, FusionStrategy, LaunchCostModel, LaunchPolicy};

fn models() -> Vec<LaunchCostModel> {
    let gpu = |spec, low_qubit_byte_overhead| LaunchCostModel {
        spec,
        policy: LaunchPolicy {
            tpb_high: 64,
            tpb_low: 32,
            low_qubit_byte_overhead,
            shuffle_flops_per_low_qubit: 4.0,
            uploads_matrices: true,
            lane_qubits: 0,
            sweep: SweepConfig::disabled(),
        },
        precision: Precision::Single,
    };
    let cpu = LaunchCostModel {
        spec: DeviceSpec::epyc_trento(),
        policy: LaunchPolicy {
            tpb_high: 128,
            tpb_low: 128,
            low_qubit_byte_overhead: 0.06,
            shuffle_flops_per_low_qubit: 6.0,
            uploads_matrices: false,
            lane_qubits: 2,
            sweep: SweepConfig::default(),
        },
        precision: Precision::Double,
    };
    vec![cpu, gpu(DeviceSpec::mi250x_gcd(), 2.0), gpu(DeviceSpec::a100(), 0.05)]
}

/// Every strategy × cost model × fusion budget produces a plan the full
/// rule set (including the probe-state equivalence check — the circuit is
/// small enough) passes without findings.
#[test]
fn every_strategy_passes_full_analysis() {
    let circuit = library::random_dense(7, 60, 9);
    let analyzer = Analyzer::new();
    for model in models() {
        for strategy in FusionStrategy::ALL {
            for max_fused in 2..=5 {
                let p = plan(&circuit, strategy, max_fused, &model);
                let report = analyzer.analyze_fused(&circuit, &p.fused, SweepConfig::default());
                assert!(
                    report.passes(true),
                    "{strategy:?} f={max_fused} on {}: {report:?}",
                    model.spec.name
                );
            }
        }
    }
}

/// Cost-planned circuits with mid-circuit measurements keep the
/// measurement-order and source-accounting lints green.
#[test]
fn cost_plans_with_measurements_pass_pre_run_gate() {
    let mut circuit = Circuit::new(6);
    let dense = library::random_dense(6, 30, 4);
    circuit.ops.clone_from(&dense.ops);
    let t = circuit.ops.iter().map(|op| op.time).max().unwrap_or(0);
    circuit.add(t + 1, GateKind::Measurement, &[2]);
    circuit.add(t + 2, GateKind::H, &[2]);
    circuit.add(t + 3, GateKind::Cnot, &[2, 3]);

    let analyzer = Analyzer::pre_run();
    for model in models() {
        for strategy in FusionStrategy::ALL {
            let p = plan(&circuit, strategy, 4, &model);
            let report = analyzer.analyze_plan(&p.fused, Some(&circuit), SweepConfig::default());
            assert!(!report.has_errors(), "{strategy:?} on {}: {report:?}", model.spec.name);
        }
    }
}

/// `analyze_fused` still reports circuit-level findings before plan-level
/// ones — a bad circuit short-circuits plan linting exactly like
/// [`Analyzer::analyze`].
#[test]
fn analyze_fused_reports_circuit_errors_first() {
    let mut bad = Circuit::new(2);
    bad.add(0, GateKind::H, &[5]); // out of range
    let good_plan = qsim_fusion::fuse(&library::bell(), 2);
    let report = Analyzer::new().analyze_fused(&bad, &good_plan, SweepConfig::default());
    assert!(report.has_errors());
}
