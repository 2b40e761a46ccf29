//! One pricing source: the seconds the fusion planner predicts for a plan
//! are the seconds the walker charges the modeled timeline for its gate
//! launches and matrix uploads — both go through
//! `LaunchPolicy::gate_profile` — on every flavor, precision, strategy and
//! sweep setting. What the prediction leaves out is named, not hidden: the
//! host fusion charge, `SetStateKernel`, sampling and measurement copies.

use gpu_model::perf::memcpy_time;
use qsim_backends::{Flavor, FusionStrategy, PlanOptions, RunReport, SimBackend, SweepConfig};
use qsim_circuit::circuit::{Circuit, GateOp};
use qsim_circuit::gates::GateKind;
use qsim_circuit::{generate_rqc, RqcOptions};
use qsim_core::types::Precision;

/// Two 17-qubit RQC halves joined by a mid-circuit measurement.
fn rqc_with_measurement() -> Circuit {
    let mut c = generate_rqc(&RqcOptions::for_qubits(17, 6, 11));
    let t = c.ops.iter().map(|op| op.time).max().expect("rqc has gates") + 1;
    c.add(t, GateKind::Measurement, &[3, 12]);
    for op in generate_rqc(&RqcOptions::for_qubits(17, 6, 12)).ops {
        c.ops.push(GateOp { time: op.time + t + 1, ..op });
    }
    c
}

/// Modeled seconds in gate kernels, whatever the flavor calls them.
fn gate_kernel_seconds(report: &RunReport) -> f64 {
    (report.time_us_matching("ApplyGate") + report.time_us_matching("applyMatrix")) * 1e-6
}

fn assert_priced_as_charged(backend: &SimBackend, circuit: &Circuit, what: &str) {
    let cells = [(FusionStrategy::Greedy, 2), (FusionStrategy::Cost, 4)];
    for precision in [Precision::Single, Precision::Double] {
        for (strategy, max_fused_qubits) in cells {
            let opts = PlanOptions { strategy, max_fused_qubits };
            let plan = backend.plan_circuit(circuit, &opts, precision);
            let report = backend.estimate_plan(&plan, precision).expect("estimate");
            // Zero on the CPU flavor, whose matrices never leave host memory.
            let uploads: f64 = plan
                .fused
                .unitaries()
                .map(|g| {
                    let bytes = (precision.amplitude_bytes() as u64) << (2 * g.qubits.len());
                    memcpy_time(backend.gpu().spec(), bytes)
                })
                .sum();
            let charged = gate_kernel_seconds(&report) + uploads;
            let predicted = plan.predicted_cost_seconds;
            assert!(report.launches_matching("Measure") == 1 && predicted > 0.0);
            // Timeline start/end subtraction rounds; the primitive is shared.
            assert!(
                (predicted / charged - 1.0).abs() < 1e-9,
                "{what} {precision:?} {strategy} -f {max_fused_qubits}: \
                 predicted {predicted} s, charged {charged} s"
            );
        }
    }
}

#[test]
fn every_flavor_charges_what_its_planner_predicts() {
    let circuit = rqc_with_measurement();
    for flavor in Flavor::all() {
        assert_priced_as_charged(&SimBackend::new(flavor), &circuit, flavor.label());
    }
}

#[test]
fn cpu_agrees_under_every_sweep_setting() {
    let circuit = rqc_with_measurement();
    for sweep in [SweepConfig::disabled(), SweepConfig::with_block_amps(1 << 8)] {
        let mut backend = SimBackend::new(Flavor::CpuAvx);
        backend.set_sweep_config(sweep);
        assert_priced_as_charged(&backend, &circuit, &format!("cpu {sweep:?}"));
    }
}

#[test]
fn the_low_overhead_ablation_moves_both_sides_together() {
    let circuit = rqc_with_measurement();
    let mut backend = SimBackend::new(Flavor::Hip);
    backend.set_low_qubit_byte_overhead(Some(0.05));
    assert_priced_as_charged(&backend, &circuit, "hip with cuda's low-qubit overhead");
}
