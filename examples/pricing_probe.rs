//! Pricing probe: what the fusion planner predicts for a plan next to what
//! the walker charges the modeled timeline for it, term by term
//! (EXPERIMENTS.md "One launch-pricing source").
//!
//! ```text
//! cargo run --release --example pricing_probe
//! ```
//!
//! `predicted` must equal `gates + uploads` (`+ exchange` when sharded):
//! both sides price a gate through `LaunchPolicy::gate_profile`. The rest
//! of `modeled` is what the planner does not price — the host fusion charge
//! and `SetStateKernel`.

use qsim_rs::backends::{FusionPlan, FusionStrategy, PlanOptions};
use qsim_rs::circuit::generate_rqc;
use qsim_rs::distributed::{DistOptions, EXCHANGE_KERNEL};
use qsim_rs::gpu::perf::memcpy_time;
use qsim_rs::gpu::specs::DeviceSpec;
use qsim_rs::prelude::*;

fn row(what: &str, spec: &DeviceSpec, plan: &FusionPlan, report: &RunReport) {
    let gates =
        (report.time_us_matching("ApplyGate") + report.time_us_matching("applyMatrix")) * 1e-6;
    let uploads: f64 = plan
        .fused
        .unitaries()
        .map(|g| {
            memcpy_time(spec, (report.precision.amplitude_bytes() as u64) << (2 * g.qubits.len()))
        })
        .sum();
    println!(
        "{what:<28} {:>12.9} {:>12.9} {:>12.9} {:>12.9} {:>10.6} {:>10.6} {:>10.6}",
        plan.predicted_cost_seconds,
        gates,
        uploads,
        report.time_us_matching(EXCHANGE_KERNEL) * 1e-6 + 0.0, // an empty sum is -0.0
        report.fusion_seconds,
        report.time_us_matching("SetState") * 1e-6,
        report.simulated_seconds,
    );
}

fn main() {
    println!(
        "{:<28} {:>12} {:>12} {:>12} {:>12} {:>10} {:>10} {:>10}",
        "cell",
        "predicted_s",
        "gates_s",
        "uploads_s",
        "exchange_s",
        "fusion_s",
        "setstate_s",
        "modeled_s"
    );
    let cost4 = PlanOptions { strategy: FusionStrategy::Cost, max_fused_qubits: 4 };
    // The benchmark's `rqc22` circuit (seed 2023) and the paper's 30-qubit one.
    let rqc22 = generate_rqc(&RqcOptions::for_qubits(22, 14, 2023));
    let q30 = generate_rqc(&RqcOptions::paper_q30());
    for (name, circuit, flavor, precision) in [
        ("rqc22 cpu f32 cost-f4", &rqc22, Flavor::CpuAvx, Precision::Single),
        ("rqc22 hip f64 cost-f4", &rqc22, Flavor::Hip, Precision::Double),
        ("q30 cpu f32 cost-f4", &q30, Flavor::CpuAvx, Precision::Single),
        ("q30 hip f32 cost-f4", &q30, Flavor::Hip, Precision::Single),
    ] {
        let backend = SimBackend::new(flavor);
        let plan = backend.plan_circuit(circuit, &cost4, precision);
        let report = backend.estimate_plan(&plan, precision).expect("estimate");
        row(name, backend.gpu().spec(), &plan, &report);
    }
    let greedy4 = PlanOptions { strategy: FusionStrategy::Greedy, max_fused_qubits: 4 };
    let rqc24 = generate_rqc(&RqcOptions::for_qubits(24, 14, 2023));
    for (name, flavor) in [
        ("rqc24 2x cpu f32 greedy-f4", Flavor::CpuAvx),
        ("rqc24 2x hip f32 greedy-f4", Flavor::Hip),
    ] {
        let dist = MultiGcdBackend::new(flavor, 2)
            .with_options(DistOptions { overlap: false, ..DistOptions::default() });
        let plan = dist.plan_circuit(&rqc24, &greedy4, Precision::Single);
        let report = dist.estimate_plan(&plan, Precision::Single).expect("estimate");
        row(name, &flavor.default_spec(), &plan, &report);
    }
}
