//! Planning shared by the single-device backend and the multi-GCD
//! distributed backend: the checked plan the walker runs
//! ([`FusionPlan`]), and how a fused gate maps to a launch descriptor
//! (grid geometry, kernel symbol, modeled work) on a given flavor.

use gpu_model::runtime::{KernelDesc, KernelWork};
use qsim_core::kernels::classify_gate;
use qsim_core::sweep::SweepConfig;
use qsim_core::types::Precision;
use qsim_fusion::LaunchPolicy;

use crate::flavor::Flavor;
use crate::sim_backend::BackendError;

/// A fusion plan that owns its pre-run verdict: the warnings its reports
/// carry, or the findings that reject it before any state is allocated.
/// [`FusionPlan::check`], and a re-check under a changed sweep, run the
/// pre-run rule set through one function, by reference. The
/// plan derefs read-only to the [`qsim_fusion::FusionPlan`] it wraps and
/// has no public field, so its verdict cannot go stale.
#[derive(Debug, Clone)]
pub struct FusionPlan {
    plan: qsim_fusion::FusionPlan,
    verdict: Result<Vec<String>, BackendError>,
    sweep: SweepConfig,
}

impl FusionPlan {
    /// Run the pre-run analysis on `plan` as it executes under `sweep`.
    pub fn check(plan: qsim_fusion::FusionPlan, sweep: SweepConfig) -> FusionPlan {
        let verdict = analyze(&plan, sweep);
        FusionPlan { plan, verdict, sweep }
    }

    /// The verdict for a walk under `sweep`: the stored one, or — when the
    /// backend's sweep changed after planning — the plan checked afresh.
    pub fn verdict(&self, sweep: SweepConfig) -> Result<Vec<String>, BackendError> {
        if sweep == self.sweep {
            return self.verdict.clone();
        }
        analyze(&self.plan, sweep)
    }
}

/// The pre-run rule set over `plan` under `sweep`: the rendered warnings,
/// or the findings that reject it.
fn analyze(
    plan: &qsim_fusion::FusionPlan,
    sweep: SweepConfig,
) -> Result<Vec<String>, BackendError> {
    let report = qsim_analyze::Analyzer::pre_run().analyze_plan(&plan.fused, None, sweep);
    if report.has_errors() {
        Err(BackendError::AnalysisRejected(report.diagnostics))
    } else {
        Ok(report.at(qsim_core::diag::Severity::Warning).map(ToString::to_string).collect())
    }
}

impl std::ops::Deref for FusionPlan {
    type Target = qsim_fusion::FusionPlan;

    fn deref(&self) -> &qsim_fusion::FusionPlan {
        &self.plan
    }
}

/// A one-pass kernel over all `len` amplitudes in High-class blocks.
fn full_pass_desc(
    name: &str,
    policy: &LaunchPolicy,
    len: usize,
    precision: Precision,
    flops: f64,
) -> KernelDesc {
    let tpb = policy.tpb_high;
    KernelDesc {
        name: name.into(),
        blocks: ((len as u64) / 2 / tpb as u64).max(1),
        threads_per_block: tpb,
        shared_mem_bytes: 0,
        work: KernelWork { bytes: (len * precision.amplitude_bytes()) as f64, flops, passes: 1.0 },
        double_precision: precision == Precision::Double,
    }
}

/// Kernel descriptor for initialising an `len`-amplitude state vector
/// on-device (`SetStateKernel`).
pub fn init_kernel_desc(policy: &LaunchPolicy, len: usize, precision: Precision) -> KernelDesc {
    full_pass_desc("SetStateKernel", policy, len, precision, 0.0)
}

/// Kernel descriptor for sampling bitstrings from an `len`-amplitude state
/// on-device (qsim's `SampleKernel`: one cumulative pass over the
/// probabilities).
pub fn sample_kernel_desc(policy: &LaunchPolicy, len: usize, precision: Precision) -> KernelDesc {
    full_pass_desc("SampleKernel", policy, len, precision, len as f64 * 4.0)
}

/// Kernel descriptor for one fused-gate pass over an `n`-qubit state:
/// the flavor's kernel symbol around [`LaunchPolicy::gate_profile`] — the
/// grid and work the fusion planner priced the gate with, so planning and
/// launch charging agree by construction.
///
/// `qubits` are the gate's **physical slot** indices on the device (for
/// the distributed backend these can differ from the circuit's logical
/// qubits); `opens_pass` is whether the gate begins a pass over the state
/// or joins the open cache-blocked run
/// ([`qsim_core::sweep::PassTracker::on_gate`]).
pub fn gate_kernel_desc(
    flavor: Flavor,
    policy: &LaunchPolicy,
    n: usize,
    qubits: &[usize],
    precision: Precision,
    opens_pass: bool,
) -> KernelDesc {
    let profile = policy.gate_profile(n, qubits, precision, LaunchPolicy::pass_share(opens_pass));
    KernelDesc {
        name: flavor.kernel_name(classify_gate(qubits)).into(),
        blocks: profile.blocks,
        threads_per_block: profile.threads_per_block,
        // Per-thread double-buffered tile through shared memory plus a
        // small fixed region for the matrix and index tables.
        shared_mem_bytes: (profile.threads_per_block as usize * 4 * precision.amplitude_bytes()
            + 1024) as u32,
        work: KernelWork {
            bytes: profile.bytes,
            flops: profile.flops,
            passes: if opens_pass { 1.0 } else { 0.0 },
        },
        double_precision: profile.double_precision,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_core::sweep::SweepConfig;

    fn policy(flavor: Flavor, precision: Precision, overhead: Option<f64>) -> LaunchPolicy {
        flavor.launch_policy(precision, SweepConfig::default(), overhead)
    }

    #[test]
    fn init_desc_geometry() {
        let hip = policy(Flavor::Hip, Precision::Single, None);
        let d = init_kernel_desc(&hip, 1 << 20, Precision::Single);
        assert_eq!(d.name, "SetStateKernel");
        assert_eq!(d.threads_per_block, 64);
        assert_eq!(d.blocks, (1 << 19) / 64);
        assert_eq!(d.work.bytes, (1u64 << 23) as f64);
        assert_eq!(d.work.flops, 0.0);
        let s = sample_kernel_desc(&hip, 1 << 20, Precision::Single);
        assert_eq!(s.name, "SampleKernel");
        assert_eq!((s.blocks, s.work.bytes), (d.blocks, d.work.bytes));
        assert_eq!(s.work.flops, (1u64 << 22) as f64);
    }

    #[test]
    fn gate_desc_routes_by_class() {
        let hip = policy(Flavor::Hip, Precision::Single, None);
        let high = gate_kernel_desc(Flavor::Hip, &hip, 20, &[7, 12], Precision::Single, true);
        assert_eq!(high.name, "ApplyGateH_Kernel");
        assert_eq!(high.threads_per_block, 64);
        assert_eq!(high.blocks, (1 << 19) / 64);
        let low = gate_kernel_desc(Flavor::Hip, &hip, 20, &[2, 12], Precision::Single, true);
        assert_eq!(low.name, "ApplyGateL_Kernel");
        assert_eq!(low.threads_per_block, 32);
        // Low kernels carry extra modeled traffic.
        assert!(low.work.bytes > high.work.bytes);
    }

    #[test]
    fn override_controls_low_overhead() {
        let qubits = [0, 1, 8, 9];
        let hip = policy(Flavor::Hip, Precision::Single, None);
        let ablated = policy(Flavor::Hip, Precision::Single, Some(0.0));
        let default = gate_kernel_desc(Flavor::Hip, &hip, 20, &qubits, Precision::Single, true);
        let fixed = gate_kernel_desc(Flavor::Hip, &ablated, 20, &qubits, Precision::Single, true);
        assert!(default.work.bytes > fixed.work.bytes);
        assert_eq!(fixed.work.bytes, 2.0 * (1u64 << 20) as f64 * 8.0);
    }

    #[test]
    fn double_precision_flag_propagates() {
        let cuda = policy(Flavor::Cuda, Precision::Double, None);
        let d = gate_kernel_desc(Flavor::Cuda, &cuda, 16, &[8], Precision::Double, true);
        assert!(d.double_precision);
        assert_eq!(d.work.bytes, 2.0 * (1u64 << 16) as f64 * 16.0);
    }

    #[test]
    fn a_joining_gate_opens_no_pass_and_moves_a_quarter_of_the_bytes() {
        let cpu = policy(Flavor::CpuAvx, Precision::Single, None);
        let opens = gate_kernel_desc(Flavor::CpuAvx, &cpu, 20, &[3, 9], Precision::Single, true);
        let joins = gate_kernel_desc(Flavor::CpuAvx, &cpu, 20, &[3, 9], Precision::Single, false);
        assert_eq!(opens.name, "ApplyGate_AVX_OMP");
        assert_eq!((opens.work.passes, joins.work.passes), (1.0, 0.0));
        assert_eq!(joins.work.bytes, opens.work.bytes * 0.25);
        assert_eq!(joins.work.flops, opens.work.flops);
    }
}
