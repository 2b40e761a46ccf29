//! A plan keeps its prepared gates under the ISA they were built for.
//! Capping the ISA after that (as `set_isa_cap` or `QSIM_NO_SIMD` does)
//! must not reuse them: the capped walk prepares a transient form and
//! computes the capped tier's bits, and the kept form still serves the
//! uncapped walks. The cap is process-wide, so this is its own test
//! binary with one test.

use qsim_backends::{Flavor, FusionPlan, PlanOptions, RunOptions, SimBackend};
use qsim_circuit::{generate_rqc, RqcOptions};
use qsim_core::simd::{active_isa, detected_isa, set_isa_cap, Isa};
use qsim_core::types::Precision;

type Bits = (Vec<(u32, u32)>, Vec<u64>);

fn run(backend: &SimBackend, plan: &FusionPlan) -> Bits {
    let opts = RunOptions { seed: 11, sample_count: 32 };
    let (state, report) = backend.run_plan::<f32>(plan, &opts).expect("runs");
    let bits = state.amplitudes().iter().map(|a| (a.re.to_bits(), a.im.to_bits())).collect();
    (bits, report.samples)
}

#[test]
fn a_capped_walk_prepares_afresh_and_computes_the_capped_tiers_bits() {
    let uncapped = active_isa();
    // A tier that rounds differently: the scalar kernels against any SIMD
    // tier (unfused against fused multiply-adds).
    let cap = if uncapped == Isa::Scalar { detected_isa() } else { Isa::Scalar };
    if cap == uncapped {
        println!("host has no second tier; skipped");
        return;
    }
    let backend = SimBackend::new(Flavor::CpuAvx);
    let circuit = generate_rqc(&RqcOptions::for_qubits(14, 8, 3));
    let opts = PlanOptions { max_fused_qubits: 3, ..PlanOptions::default() };
    let plan = || backend.plan_circuit(&circuit, &opts, Precision::Single);

    let kept = plan();
    let first = run(&backend, &kept);
    let kept_bytes = kept.resident_bytes();

    set_isa_cap(Some(cap));
    let capped = run(&backend, &kept);
    let fresh = run(&backend, &plan());
    set_isa_cap(None);

    assert_eq!(capped, fresh, "the capped walk is a fresh plan's under the cap");
    assert_ne!(capped.0, first.0, "{cap:?} and {uncapped:?} round differently");
    assert_eq!(kept.resident_bytes(), kept_bytes, "the kept form stays");
    assert_eq!(run(&backend, &kept), first, "and serves the uncapped walks");
}
