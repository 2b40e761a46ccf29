//! Coverage of the unitarity certificate on the paper's workload: every
//! fused product of every `est30-grid` plan comes out of `build` certified
//! within half the pre-run tolerance, so the pre-run check forms no Gram
//! matrix for any of them.

use qsim_backends::{Flavor, FusionPlan, PlanOptions, SimBackend};
use qsim_circuit::parser::{parse_circuit, write_circuit};
use qsim_circuit::{generate_rqc, RqcOptions};
use qsim_core::types::Precision;
use qsim_distributed::MultiGcdBackend;
use qsim_fusion::FusionStrategy;

/// Half `qsim_analyze::PLAN_UNITARY_TOL_F64`, the most a certificate may
/// say for the check to take it.
const READ_UP_TO: f64 = 5e-9;

fn assert_certified(plan: &FusionPlan, cell: &str) {
    for (i, g) in plan.fused.unitaries().enumerate() {
        let cert = g.certificate();
        assert!(
            cert.is_some_and(|cert| cert <= READ_UP_TO),
            "{cell}: product {i} on {:?} ({} gates) certified {cert:?}",
            g.qubits,
            g.source_gates
        );
    }
}

#[test]
fn every_product_of_the_paper_plans_is_certified() {
    let q30 = generate_rqc(&RqcOptions::paper_q30());
    let mut cells: Vec<PlanOptions> = Vec::new();
    for strategy in [FusionStrategy::Greedy, FusionStrategy::Cost] {
        cells.extend((1..=6).map(|max_fused_qubits| PlanOptions { strategy, max_fused_qubits }));
    }
    cells.push(PlanOptions { strategy: FusionStrategy::Auto, max_fused_qubits: 4 });
    for flavor in Flavor::all() {
        let backend = SimBackend::new(flavor);
        for precision in [Precision::Single, Precision::Double] {
            for opts in &cells {
                let plan = backend.plan_circuit(&q30, opts, precision);
                assert_certified(&plan, &format!("{flavor:?} {precision:?} {opts:?}"));
            }
        }
    }

    let cost4 = PlanOptions { strategy: FusionStrategy::Cost, max_fused_qubits: 4 };
    for qubits in [32, 33, 34] {
        let text = write_circuit(&generate_rqc(&RqcOptions::for_qubits(qubits, 14, 2023)));
        let circuit = parse_circuit(&text).expect("a written RQC parses");
        for devices in [2, 4, 8] {
            let plan = MultiGcdBackend::new(Flavor::Hip, devices).plan_circuit(
                &circuit,
                &cost4,
                Precision::Single,
            );
            assert_certified(&plan, &format!("q{qubits} on {devices} GCDs"));
        }
    }
}
