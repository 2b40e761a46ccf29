//! Kernel-launch planning shared by the single-device backend and the
//! multi-GCD distributed backend: how a fused gate maps to a launch
//! descriptor (grid geometry, kernel symbol, modeled work) on a given
//! flavor.

use gpu_model::runtime::{KernelDesc, KernelWork};
use qsim_core::kernels::{classify_gate, fused_gate_work, KernelClass};

use crate::flavor::Flavor;

/// Kernel descriptor for initialising an `len`-amplitude state vector
/// on-device (`SetStateKernel`).
pub fn init_kernel_desc(
    flavor: Flavor,
    len: usize,
    amp_bytes: usize,
    double_precision: bool,
) -> KernelDesc {
    let tpb = flavor.threads_per_block(KernelClass::High);
    KernelDesc {
        name: "SetStateKernel".into(),
        blocks: ((len as u64) / 2 / tpb as u64).max(1),
        threads_per_block: tpb,
        shared_mem_bytes: 0,
        work: KernelWork { bytes: (len * amp_bytes) as f64, flops: 0.0, passes: 1.0 },
        double_precision,
    }
}

/// Kernel descriptor for sampling bitstrings from an `len`-amplitude state
/// on-device (qsim's `SampleKernel`: one cumulative pass over the
/// probabilities).
pub fn sample_kernel_desc(
    flavor: Flavor,
    len: usize,
    amp_bytes: usize,
    double_precision: bool,
) -> KernelDesc {
    let tpb = flavor.threads_per_block(KernelClass::High);
    KernelDesc {
        name: "SampleKernel".into(),
        blocks: ((len as u64) / 2 / tpb as u64).max(1),
        threads_per_block: tpb,
        shared_mem_bytes: 0,
        work: KernelWork { bytes: (len * amp_bytes) as f64, flops: len as f64 * 4.0, passes: 1.0 },
        double_precision,
    }
}

/// Kernel descriptor for one fused-gate pass over an `n`-qubit state:
/// qsim's block geometry (each thread owns two amplitudes; 32-thread
/// blocks for L-class, 64 for H-class) and the roofline work accounting,
/// including the shared-memory rearrangement surcharge per low qubit.
///
/// `qubits` are the gate's **physical slot** indices on the device (for
/// the distributed backend these can differ from the circuit's logical
/// qubits); `low_overhead_override` replaces
/// [`Flavor::low_qubit_byte_overhead`] when set (ablations).
pub fn gate_kernel_desc(
    flavor: Flavor,
    n: usize,
    qubits: &[usize],
    amp_bytes: usize,
    double_precision: bool,
    low_overhead_override: Option<f64>,
) -> KernelDesc {
    let len = 1usize << n;
    let class = classify_gate(qubits);
    // Shared cost kernel (see [`qsim_core::kernels::fused_gate_work`] for
    // the low-qubit surcharge rationale) — the fusion planner prices
    // candidate merges through the same function, so planning and launch
    // charging agree by construction.
    let overhead = low_overhead_override.unwrap_or(flavor.low_qubit_byte_overhead());
    let work =
        fused_gate_work(n, qubits, amp_bytes, overhead, flavor.shuffle_flops_per_low_qubit());
    let tpb = flavor.threads_per_block(class);
    KernelDesc {
        name: flavor.kernel_name(class).into(),
        blocks: ((len as u64) / 2 / tpb as u64).max(1),
        threads_per_block: tpb,
        // Per-thread double-buffered tile through shared memory plus a
        // small fixed region for the matrix and index tables.
        shared_mem_bytes: (tpb as usize * 4 * amp_bytes + 1024) as u32,
        work: KernelWork { bytes: work.bytes, flops: work.flops, passes: 1.0 },
        double_precision,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_core::kernels::gate_work;

    #[test]
    fn init_desc_geometry() {
        let d = init_kernel_desc(Flavor::Hip, 1 << 20, 8, false);
        assert_eq!(d.name, "SetStateKernel");
        assert_eq!(d.threads_per_block, 64);
        assert_eq!(d.blocks, (1 << 19) / 64);
        assert_eq!(d.work.bytes, (1u64 << 23) as f64);
    }

    #[test]
    fn gate_desc_routes_by_class() {
        let high = gate_kernel_desc(Flavor::Hip, 20, &[7, 12], 8, false, None);
        assert_eq!(high.name, "ApplyGateH_Kernel");
        assert_eq!(high.threads_per_block, 64);
        let low = gate_kernel_desc(Flavor::Hip, 20, &[2, 12], 8, false, None);
        assert_eq!(low.name, "ApplyGateL_Kernel");
        assert_eq!(low.threads_per_block, 32);
        // Low kernels carry extra modeled traffic.
        assert!(low.work.bytes > high.work.bytes);
    }

    #[test]
    fn override_controls_low_overhead() {
        let default = gate_kernel_desc(Flavor::Hip, 20, &[0, 1, 8, 9], 8, false, None);
        let fixed = gate_kernel_desc(Flavor::Hip, 20, &[0, 1, 8, 9], 8, false, Some(0.0));
        assert!(default.work.bytes > fixed.work.bytes);
        let plain = gate_work(20, 4, 0, 8);
        assert_eq!(fixed.work.bytes, plain.bytes);
    }

    #[test]
    fn double_precision_flag_propagates() {
        let d = gate_kernel_desc(Flavor::Cuda, 16, &[8], 16, true, None);
        assert!(d.double_precision);
        assert_eq!(d.work.bytes, 2.0 * (1u64 << 16) as f64 * 16.0);
    }
}
