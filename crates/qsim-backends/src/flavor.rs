//! Backend flavors: which device is modeled and how kernels are launched
//! on it — the policy differences between qsim's CPU, CUDA, cuStateVec and
//! HIP backends.

use gpu_model::specs::DeviceSpec;
use qsim_core::kernels::KernelClass;
use qsim_core::sweep::SweepConfig;
use qsim_core::types::Precision;
use qsim_fusion::LaunchPolicy;

/// Which qsim backend is being modeled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Flavor {
    /// qsim's AVX512 + OpenMP CPU backend on the EPYC "Trento" socket.
    CpuAvx,
    /// qsim's CUDA backend on the Nvidia A100.
    Cuda,
    /// qsim's cuQuantum (`cuStateVec`) backend on the Nvidia A100: the
    /// same algorithms behind Nvidia's tuned library interface; the paper
    /// measures it < 10 % faster than plain CUDA.
    CuStateVec,
    /// The hipified backend of the paper on one MI250X GCD.
    Hip,
}

impl Flavor {
    /// Short identifier used in reports and CSV output.
    pub fn label(&self) -> &'static str {
        match self {
            Flavor::CpuAvx => "cpu",
            Flavor::Cuda => "cuda",
            Flavor::CuStateVec => "custatevec",
            Flavor::Hip => "hip",
        }
    }

    /// All four flavors, in the paper's presentation order.
    pub fn all() -> [Flavor; 4] {
        [Flavor::CpuAvx, Flavor::Cuda, Flavor::CuStateVec, Flavor::Hip]
    }

    /// Valid [`std::str::FromStr`] inputs, for usage strings.
    pub const NAMES: &'static str = "cpu | cuda | custatevec | hip";

    /// The device this flavor runs on by default.
    pub fn default_spec(&self) -> DeviceSpec {
        match self {
            Flavor::CpuAvx => DeviceSpec::epyc_trento(),
            Flavor::Cuda => DeviceSpec::a100(),
            Flavor::CuStateVec => {
                // Same silicon as the CUDA flavor; the library's tuned
                // kernels achieve a little more of peak bandwidth and
                // launch with less overhead — calibrated to the paper's
                // "< 10 %, favoring cuQuantum by a slight margin".
                let mut spec = DeviceSpec::a100();
                spec.name = "NVIDIA A100 (cuStateVec)".into();
                spec.mem_efficiency = 0.855;
                spec.launch_latency_us = 3.0;
                spec
            }
            Flavor::Hip => DeviceSpec::mi250x_gcd(),
        }
    }

    /// Kernel symbol for traces, matching what rocprof/nsys shows for each
    /// backend.
    pub fn kernel_name(&self, class: KernelClass) -> &'static str {
        match self {
            Flavor::CpuAvx => "ApplyGate_AVX_OMP",
            Flavor::CuStateVec => match class {
                KernelClass::High => "custatevec::applyMatrix_H",
                KernelClass::Low => "custatevec::applyMatrix_L",
            },
            Flavor::Cuda | Flavor::Hip => class.kernel_name(),
        }
    }

    /// Fractional *extra memory traffic* charged per low target qubit in
    /// `ApplyGateL_Kernel`-class launches.
    ///
    /// Rearranging strided low-qubit data costs memory-system efficiency:
    /// partially-used cache lines and shared-memory staging that spills
    /// round trips. On Nvidia, qsim's CUDA kernels hide nearly all of
    /// this with register-level warp shuffles (`__shfl_sync`) inside one
    /// 32-thread warp. The hipified port executes the same collectives on
    /// a 64-lane wavefront holding only 32 active threads, so the
    /// rearrangement goes through LDS with half-empty wavefronts and the
    /// effective traffic per low qubit grows substantially — the
    /// fine-tuning the paper's §7 says the HIP backend still lacks.
    /// Values are calibration constants fitted to Figure 9's 5 %→44 %
    /// A100↔MI250X gap progression (see EXPERIMENTS.md).
    pub fn low_qubit_byte_overhead(&self) -> f64 {
        match self {
            Flavor::CpuAvx => 0.06,     // AVX permutes; caches absorb most of it
            Flavor::Cuda => 0.05,       // warp-shuffle path
            Flavor::CuStateVec => 0.03, // library-tuned kernels
            Flavor::Hip => 2.0,         // LDS round trips on half-filled wavefronts
        }
    }

    /// How this flavor launches fused-gate kernels at `precision` — the
    /// one place a [`LaunchPolicy`] is filled in, read by the plan walkers
    /// (through [`crate::plan::gate_kernel_desc`]) and by the fusion cost
    /// model alike. `sweep` is the host's cache-blocked sweep setting and
    /// `low_overhead_override` replaces [`Self::low_qubit_byte_overhead`]
    /// (ablations).
    ///
    /// Block sizes are the paper's (§4): *"we assign 32 threads per block
    /// for ApplyGateL_Kernel and 64 threads per block for
    /// ApplyGateH_Kernel. These parameters are fixed as they correspond to
    /// the size of the shared memory arrays"* — and keeping the 32-thread
    /// `L` blocks is exactly what underutilizes the AMD 64-lane wavefront.
    /// The CPU flavor's "block" is the OpenMP team (128 threads, two per
    /// core). Only the CPU flavor runs on host SIMD lanes, executes blocked
    /// sweeps, and reads gate matrices from host memory directly; on the
    /// GPU flavors they travel over the host↔device link before each
    /// kernel (the `hipMemcpyAsync` activity of Figures 1 and 6). The
    /// shuffle flops per low target — index arithmetic for the data
    /// rearrangement of the paper's §2.2(3) — are small everywhere
    /// (shuffles are register/LDS operations, not FMAs).
    pub fn launch_policy(
        &self,
        precision: Precision,
        sweep: SweepConfig,
        low_overhead_override: Option<f64>,
    ) -> LaunchPolicy {
        let host = *self == Flavor::CpuAvx;
        let (tpb_high, tpb_low) = if host { (128, 128) } else { (64, 32) };
        LaunchPolicy {
            tpb_high,
            tpb_low,
            low_qubit_byte_overhead: low_overhead_override
                .unwrap_or_else(|| self.low_qubit_byte_overhead()),
            shuffle_flops_per_low_qubit: if host { 6.0 } else { 4.0 },
            uploads_matrices: !host,
            lane_qubits: if host {
                qsim_core::simd::active_isa().lane_qubits(precision)
            } else {
                0
            },
            sweep: if host { sweep } else { SweepConfig::disabled() },
        }
    }
}

/// Parse the label back to the flavor (`cpu`, `cuda`, `custatevec`,
/// `hip`) — the single parser every CLI surface and the wire protocol
/// share.
impl std::str::FromStr for Flavor {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "cpu" => Ok(Flavor::CpuAvx),
            "cuda" => Ok(Flavor::Cuda),
            "custatevec" => Ok(Flavor::CuStateVec),
            "hip" => Ok(Flavor::Hip),
            other => Err(format!("unknown backend '{other}' (expected {})", Flavor::NAMES)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_specs() {
        assert_eq!(Flavor::CpuAvx.label(), "cpu");
        assert_eq!(Flavor::Hip.label(), "hip");
        assert_eq!(Flavor::Cuda.default_spec().name, "NVIDIA A100");
        assert!(Flavor::CuStateVec.default_spec().name.contains("cuStateVec"));
        assert_eq!(Flavor::Hip.default_spec().wavefront_width, 64);
        assert_eq!(Flavor::all().len(), 4);
    }

    #[test]
    fn custatevec_is_slightly_better_a100() {
        let cuda = Flavor::Cuda.default_spec();
        let cusv = Flavor::CuStateVec.default_spec();
        assert!(cusv.mem_efficiency > cuda.mem_efficiency);
        assert!(cusv.mem_efficiency < cuda.mem_efficiency * 1.10, "< 10 % advantage");
        assert_eq!(cusv.mem_bw_gib_s, cuda.mem_bw_gib_s);
    }

    fn policy(flavor: Flavor) -> LaunchPolicy {
        flavor.launch_policy(Precision::Single, SweepConfig::default(), None)
    }

    #[test]
    fn block_sizes_match_the_paper() {
        for f in [Flavor::Cuda, Flavor::CuStateVec, Flavor::Hip] {
            assert_eq!((policy(f).tpb_high, policy(f).tpb_low), (64, 32));
        }
        assert_eq!(policy(Flavor::CpuAvx).tpb_high, 128);
    }

    #[test]
    fn hip_low_kernel_underfills_wavefront() {
        let spec = Flavor::Hip.default_spec();
        assert_eq!(
            gpu_model::perf::wave_utilization(policy(Flavor::Hip).tpb_low, spec.wavefront_width),
            0.5,
            "the paper's core architectural effect"
        );
        // ...while the CUDA flavor's L kernel fills its warp.
        let spec = Flavor::Cuda.default_spec();
        assert_eq!(
            gpu_model::perf::wave_utilization(policy(Flavor::Cuda).tpb_low, spec.wavefront_width),
            1.0
        );
    }

    #[test]
    fn only_the_host_flavor_sweeps_and_splits_lanes() {
        let lanes = qsim_core::simd::active_isa().lane_qubits(Precision::Double);
        let sweep = SweepConfig::with_block_amps(1 << 8);
        let cpu = Flavor::CpuAvx.launch_policy(Precision::Double, sweep, None);
        assert_eq!((cpu.sweep, cpu.lane_qubits, cpu.uploads_matrices), (sweep, lanes, false));
        for f in [Flavor::Cuda, Flavor::CuStateVec, Flavor::Hip] {
            let gpu = f.launch_policy(Precision::Double, sweep, None);
            assert_eq!(
                (gpu.sweep, gpu.lane_qubits, gpu.uploads_matrices),
                (SweepConfig::disabled(), 0, true)
            );
        }
        // The ablation override replaces the flavor's calibration.
        assert_eq!(policy(Flavor::Hip).low_qubit_byte_overhead, 2.0);
        let ablated = Flavor::Hip.launch_policy(Precision::Single, sweep, Some(0.05));
        assert_eq!(ablated.low_qubit_byte_overhead, 0.05);
    }

    #[test]
    fn kernel_names() {
        use KernelClass::*;
        assert_eq!(Flavor::Hip.kernel_name(High), "ApplyGateH_Kernel");
        assert_eq!(Flavor::Hip.kernel_name(Low), "ApplyGateL_Kernel");
        assert!(Flavor::CuStateVec.kernel_name(Low).contains("custatevec"));
        assert_eq!(Flavor::CpuAvx.kernel_name(High), "ApplyGate_AVX_OMP");
    }

    #[test]
    fn from_str_round_trips_every_label() {
        for f in Flavor::all() {
            assert_eq!(f.label().parse::<Flavor>(), Ok(f));
        }
        let err = "rocm".parse::<Flavor>().unwrap_err();
        assert!(err.contains("unknown backend 'rocm'"));
        assert!(err.contains(Flavor::NAMES));
    }
}
