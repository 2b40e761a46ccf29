//! Device specifications, including the paper's Table 1 hardware and the
//! calibration constants of the performance model.
//!
//! Peak numbers (memory bandwidth, SP/DP FLOP rates, memory capacity,
//! wavefront width) are taken verbatim from Table 1 of the paper.
//! Efficiency constants — which fraction of those peaks the qsim-style
//! gather/scatter kernels achieve — are calibration parameters; their
//! values and rationale are documented on each preset and the resulting
//! paper-vs-model deltas are recorded in EXPERIMENTS.md.

const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// Broad device class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceKind {
    /// A discrete GPU (or one GCD of a multi-die GPU).
    Gpu,
    /// A multicore CPU socket driven OpenMP-style.
    Cpu,
}

serde::impl_serde_unit_enum!(DeviceKind { Gpu, Cpu });

/// A modeled execution device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name, e.g. `"NVIDIA A100"`.
    pub name: String,
    /// GPU or CPU.
    pub kind: DeviceKind,
    /// SIMT width: CUDA warp (32) or AMD wavefront (64). For CPUs, the
    /// SIMD vector width in 32-bit lanes (8 for AVX2).
    pub wavefront_width: u32,
    /// Streaming multiprocessors / compute units / cores.
    pub compute_units: u32,
    /// Maximum threads per block the runtime accepts.
    pub max_threads_per_block: u32,
    /// Shared memory (LDS) available to one block, bytes.
    pub shared_mem_per_block: u32,
    /// Device memory capacity, bytes.
    pub memory_bytes: u64,
    /// Peak memory bandwidth, GiB/s (Table 1).
    pub mem_bw_gib_s: f64,
    /// Peak single-precision rate, TFLOP/s (Table 1).
    pub sp_tflops: f64,
    /// Peak double-precision rate, TFLOP/s.
    pub dp_tflops: f64,
    /// Host↔device interconnect bandwidth, GiB/s (PCIe 4.0 x16 ≈ 24 GiB/s
    /// effective; Infinity Fabric for the MI250X host link).
    pub h2d_bw_gib_s: f64,
    /// Fixed kernel-launch latency, microseconds.
    pub launch_latency_us: f64,

    // ---- calibration constants (see module docs) ----
    /// Fraction of peak bandwidth these gather/scatter kernels achieve
    /// with fully-populated wavefronts.
    pub mem_efficiency: f64,
    /// Fraction of peak FLOPs achieved by the in-register matrix work.
    pub flop_efficiency: f64,
    /// How strongly under-filled wavefronts reduce *achieved memory
    /// bandwidth* (0 = none, 1 = proportional). Latency-bound GPUs need
    /// every lane issuing loads to saturate HBM, so this is high for GPUs.
    pub wave_mem_sensitivity: f64,
    /// Blocks needed per compute unit for full occupancy; fewer blocks
    /// scale throughput down linearly.
    pub occupancy_blocks_per_cu: u32,
}

serde::impl_serde_struct!(DeviceSpec {
    name,
    kind,
    wavefront_width,
    compute_units,
    max_threads_per_block,
    shared_mem_per_block,
    memory_bytes,
    mem_bw_gib_s,
    sp_tflops,
    dp_tflops,
    h2d_bw_gib_s,
    launch_latency_us,
    mem_efficiency,
    flop_efficiency,
    wave_mem_sensitivity,
    occupancy_blocks_per_cu,
});

impl DeviceSpec {
    /// Nvidia A100 40 GB (Table 1): 1448 GiB/s memory bandwidth, warp 32.
    ///
    /// **Deviation from Table 1:** the paper lists 10.5 SP TFLOP/s, but
    /// the A100's FP32 peak is 19.5 TFLOP/s (its FP64 peak is 9.7, which
    /// Table 1 appears to have halved-from). With 10.5 the device model
    /// would go compute-bound at fused size 4 and *deteriorate* at larger
    /// fusion — contradicting the paper's own observation that the Nvidia
    /// backend does not. We therefore use the datasheet 19.5.
    ///
    /// Efficiencies: qsim's CUDA backend is "highly optimized" (paper
    /// §2.3) and Nvidia's memory system tolerates the strided gathers
    /// well; we credit 80 % of peak bandwidth and 62 % of peak flops
    /// (the fused-matrix work streams operands through shared memory
    /// rather than registers, so it sits well below FMA peak — this is
    /// what turns fused sizes above 4 compute-bound and puts the optimum
    /// at 4, as every backend in the paper observes).
    pub fn a100() -> Self {
        DeviceSpec {
            name: "NVIDIA A100".into(),
            kind: DeviceKind::Gpu,
            wavefront_width: 32,
            compute_units: 108,
            max_threads_per_block: 1024,
            shared_mem_per_block: 48 * 1024,
            memory_bytes: 40 * GIB as u64,
            mem_bw_gib_s: 1448.0,
            sp_tflops: 19.5,
            dp_tflops: 9.7,
            h2d_bw_gib_s: 24.0,
            launch_latency_us: 4.0,
            mem_efficiency: 0.80,
            flop_efficiency: 0.62,
            wave_mem_sensitivity: 0.5,
            occupancy_blocks_per_cu: 4,
        }
    }

    /// One GCD of an AMD MI250X (Table 1): 1638.4 GiB/s, 23.95 SP
    /// TFLOP/s, wavefront 64, 128 GB HBM2e per GCD (Table 1's figure).
    ///
    /// Efficiencies: on coalesced, fully-populated wavefronts the GCD's
    /// HBM2e streams well (88 % of peak here); the hipified backend's
    /// real handicap is concentrated in `ApplyGateL_Kernel`, which keeps
    /// its CUDA-era 32-thread blocks — half of every 64-lane wavefront
    /// idle (paper §4) — and pays heavy extra rearrangement traffic per
    /// low qubit (see `Flavor::low_qubit_byte_overhead`); a small
    /// `wave_mem_sensitivity` adds the residual issue-rate loss of
    /// half-filled wavefronts.
    pub fn mi250x_gcd() -> Self {
        DeviceSpec {
            name: "AMD MI250X (1 GCD)".into(),
            kind: DeviceKind::Gpu,
            wavefront_width: 64,
            compute_units: 110,
            max_threads_per_block: 1024,
            shared_mem_per_block: 64 * 1024,
            memory_bytes: 128 * GIB as u64,
            mem_bw_gib_s: 1638.4,
            sp_tflops: 23.95,
            dp_tflops: 23.95,
            h2d_bw_gib_s: 32.0,
            launch_latency_us: 7.0,
            mem_efficiency: 0.88,
            flop_efficiency: 0.75,
            wave_mem_sensitivity: 0.10,
            occupancy_blocks_per_cu: 4,
        }
    }

    /// AMD EPYC 7A53 "Trento" socket (Table 1): 64 cores at 2.75 GHz,
    /// 512 GB DDR4. Peak bandwidth is 8-channel DDR4-3200 = 190.7 GiB/s;
    /// peak SP flops 64 cores × 2.75 GHz × 32 flops/cycle (2×256-bit FMA)
    /// = 5.63 TFLOP/s. Run OpenMP-style with 128 threads (paper §4).
    ///
    /// Efficiencies: qsim's OpenMP gate loop reaches ~68 % of DDR4 peak
    /// (STREAM-class); its flop efficiency is low (13 % — the AVX path is
    /// gather/scatter-dominated on fused matrices), which is what turns
    /// fused sizes above 4 compute-bound and makes 4 the CPU optimum in
    /// Figure 7. Each gate pass also pays an OpenMP fork/barrier
    /// (`launch_latency_us`).
    pub fn epyc_trento() -> Self {
        DeviceSpec {
            name: "AMD EPYC 7A53 Trento".into(),
            kind: DeviceKind::Cpu,
            wavefront_width: 8,
            compute_units: 64,
            max_threads_per_block: 128,
            shared_mem_per_block: 32 * 1024 * 1024, // L3 slice; unused by model
            memory_bytes: 512 * GIB as u64,
            mem_bw_gib_s: 190.7,
            sp_tflops: 5.63,
            dp_tflops: 2.82,
            h2d_bw_gib_s: f64::INFINITY, // host memory *is* device memory
            launch_latency_us: 15.0,     // OpenMP parallel-for fork+barrier
            mem_efficiency: 0.68,
            flop_efficiency: 0.13,
            wave_mem_sensitivity: 0.2,
            occupancy_blocks_per_cu: 1,
        }
    }

    /// Peak memory bandwidth in bytes/second.
    pub fn mem_bw_bytes_s(&self) -> f64 {
        self.mem_bw_gib_s * GIB
    }

    /// Peak flops per second at the given precision.
    pub fn flops_per_s(&self, double_precision: bool) -> f64 {
        if double_precision {
            self.dp_tflops * 1e12
        } else {
            self.sp_tflops * 1e12
        }
    }

    /// Host↔device bandwidth in bytes/second.
    pub fn h2d_bw_bytes_s(&self) -> f64 {
        self.h2d_bw_gib_s * GIB
    }
}

/// The software environment rows of Table 1, for the `table1` harness.
/// Serialize-only: the `&'static str` fields cannot be deserialized into,
/// and nothing reads this type back.
#[derive(Debug, Clone, PartialEq)]
pub struct SoftwareSetup {
    pub qsim_version: &'static str,
    pub compiler: &'static str,
    pub rocm: &'static str,
    pub cuda_toolkit: &'static str,
    pub cuquantum: &'static str,
}

impl serde::Serialize for SoftwareSetup {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("qsim_version".to_string(), serde::Serialize::to_value(self.qsim_version)),
            ("compiler".to_string(), serde::Serialize::to_value(self.compiler)),
            ("rocm".to_string(), serde::Serialize::to_value(self.rocm)),
            ("cuda_toolkit".to_string(), serde::Serialize::to_value(self.cuda_toolkit)),
            ("cuquantum".to_string(), serde::Serialize::to_value(self.cuquantum)),
        ])
    }
}

impl Default for SoftwareSetup {
    fn default() -> Self {
        SoftwareSetup {
            qsim_version: "0.16.3 (qsim-rs reproduction)",
            compiler: "GCC 8.5.0 (paper) / rustc (this repo)",
            rocm: "5.3.3 (modeled)",
            cuda_toolkit: "CUDA 11.5 (modeled)",
            cuquantum: "23.03.0 (modeled)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_numbers_are_encoded() {
        let a = DeviceSpec::a100();
        assert_eq!(a.mem_bw_gib_s, 1448.0);
        // 19.5 is the A100 datasheet FP32 peak; Table 1's 10.5 is
        // inconsistent with the part (see the preset's doc comment).
        assert_eq!(a.sp_tflops, 19.5);
        assert_eq!(a.wavefront_width, 32);
        assert_eq!(a.memory_bytes, 40 * 1024 * 1024 * 1024);

        let m = DeviceSpec::mi250x_gcd();
        assert_eq!(m.mem_bw_gib_s, 1638.4);
        assert_eq!(m.sp_tflops, 23.95);
        assert_eq!(m.wavefront_width, 64);
        assert_eq!(m.memory_bytes, 128 * 1024 * 1024 * 1024);

        let c = DeviceSpec::epyc_trento();
        assert_eq!(c.compute_units, 64);
        assert_eq!(c.kind, DeviceKind::Cpu);
    }

    #[test]
    fn derived_rates() {
        let a = DeviceSpec::a100();
        assert!((a.mem_bw_bytes_s() - 1448.0 * 1073741824.0).abs() < 1.0);
        assert_eq!(a.flops_per_s(false), 19.5e12);
        assert_eq!(a.flops_per_s(true), 9.7e12);
    }

    #[test]
    fn efficiency_constants_are_fractions() {
        for s in [DeviceSpec::a100(), DeviceSpec::mi250x_gcd(), DeviceSpec::epyc_trento()] {
            assert!(s.mem_efficiency > 0.0 && s.mem_efficiency <= 1.0, "{}", s.name);
            assert!(s.flop_efficiency > 0.0 && s.flop_efficiency <= 1.0, "{}", s.name);
            assert!((0.0..=1.0).contains(&s.wave_mem_sensitivity), "{}", s.name);
        }
    }

    #[test]
    fn serde_roundtrip() {
        let s = DeviceSpec::mi250x_gcd();
        let json = serde_json::to_string(&s).unwrap();
        let back: DeviceSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
