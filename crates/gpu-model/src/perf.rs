//! The analytic kernel performance model.
//!
//! For a kernel that moves `bytes` to/from device memory and executes
//! `flops` floating-point operations with grid geometry
//! `(blocks, threads_per_block)`:
//!
//! ```text
//! t = launch_latency
//!   + max( bytes / (BW_peak · eff_mem),  flops / (FLOPS_peak · eff_flop) )
//!
//! eff_mem  = mem_efficiency · (1 − wave_mem_sensitivity·(1 − U)) · O
//! eff_flop = flop_efficiency · U · O
//! ```
//!
//! where `U` is the **wavefront utilization** — the fraction of SIMT lanes
//! a block actually fills, `threads_per_block / (ceil(tpb/W)·W)` for
//! wavefront width `W` — and `O` is an occupancy factor that derates tiny
//! grids. `U` is the paper's central architectural effect: qsim's
//! `ApplyGateL_Kernel` keeps 32-thread blocks after hipification, which is
//! one full CUDA warp (`U = 1` on the A100) but **half** an AMD wavefront
//! (`U = 0.5` on the MI250X), and enlarging the block "necessitates a
//! significant algorithmic overhaul" because it would exceed the shared
//! memory layout (paper §4). Fusion routes ever more work to exactly that
//! kernel, which is how the A100↔MI250X gap grows from ~5 % at
//! `max_fused_qubits = 2` to ~44 % at 4 (paper Figure 9).

use crate::specs::DeviceSpec;

/// Work and geometry of one kernel launch, the model's input.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaunchProfile {
    /// Bytes read from + written to device memory.
    pub bytes: f64,
    /// Floating-point operations executed.
    pub flops: f64,
    /// Grid size in blocks.
    pub blocks: u64,
    /// Threads per block.
    pub threads_per_block: u32,
    /// Whether the kernel runs in double precision (selects the peak
    /// flops rate).
    pub double_precision: bool,
}

impl LaunchProfile {
    /// Profile for qsim's gate-kernel grid convention: each thread owns
    /// two amplitudes, so an `len`-amplitude pass launches
    /// `max(len / 2 / tpb, 1)` blocks. Shared by the backend launch
    /// planner and the fusion cost models so both price the same grid.
    pub fn for_gate_grid(
        len: u64,
        threads_per_block: u32,
        bytes: f64,
        flops: f64,
        double_precision: bool,
    ) -> LaunchProfile {
        LaunchProfile {
            bytes,
            flops,
            blocks: (len / 2 / u64::from(threads_per_block)).max(1),
            threads_per_block,
            double_precision,
        }
    }
}

/// Wavefront (warp) utilization of a block: lanes filled over lanes
/// allocated, `tpb / (ceil(tpb/W)·W)`.
pub fn wave_utilization(threads_per_block: u32, wavefront_width: u32) -> f64 {
    assert!(threads_per_block > 0 && wavefront_width > 0);
    let waves = threads_per_block.div_ceil(wavefront_width);
    threads_per_block as f64 / (waves * wavefront_width) as f64
}

/// Occupancy derating: grids smaller than
/// `compute_units × occupancy_blocks_per_cu` cannot keep the device busy.
pub fn occupancy_factor(spec: &DeviceSpec, blocks: u64) -> f64 {
    let full = (spec.compute_units as u64 * spec.occupancy_blocks_per_cu as u64).max(1);
    ((blocks as f64) / (full as f64)).min(1.0)
}

/// Predicted kernel duration in **seconds** (excluding queueing; the
/// timeline adds stream serialization).
pub fn kernel_time(spec: &DeviceSpec, p: &LaunchProfile) -> f64 {
    assert!(p.bytes >= 0.0 && p.flops >= 0.0, "work must be non-negative");
    let u = wave_utilization(p.threads_per_block, spec.wavefront_width);
    let o = occupancy_factor(spec, p.blocks);

    let eff_mem = spec.mem_efficiency * (1.0 - spec.wave_mem_sensitivity * (1.0 - u)) * o;
    let eff_flop = spec.flop_efficiency * u * o;

    let t_mem = if p.bytes > 0.0 { p.bytes / (spec.mem_bw_bytes_s() * eff_mem) } else { 0.0 };
    let t_flop = if p.flops > 0.0 {
        p.flops / (spec.flops_per_s(p.double_precision) * eff_flop)
    } else {
        0.0
    };
    spec.launch_latency_us * 1e-6 + t_mem.max(t_flop)
}

/// Predicted duration of a host↔device copy of `bytes` (seconds).
pub fn memcpy_time(spec: &DeviceSpec, bytes: u64) -> f64 {
    if spec.h2d_bw_bytes_s().is_infinite() {
        return 0.0;
    }
    // Small fixed cost per async copy (driver + DMA setup).
    2.0e-6 + bytes as f64 / spec.h2d_bw_bytes_s()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big_grid() -> u64 {
        1 << 20
    }

    #[test]
    fn wave_utilization_cases() {
        assert_eq!(wave_utilization(32, 32), 1.0);
        assert_eq!(wave_utilization(64, 32), 1.0);
        assert_eq!(wave_utilization(32, 64), 0.5);
        assert_eq!(wave_utilization(64, 64), 1.0);
        assert_eq!(wave_utilization(96, 64), 0.75);
        assert_eq!(wave_utilization(1, 64), 1.0 / 64.0);
    }

    #[test]
    fn the_papers_core_asymmetry() {
        // A 32-thread-block kernel (ApplyGateL as hipified) fills a CUDA
        // warp but half an AMD wavefront.
        let a100 = DeviceSpec::a100();
        let mi = DeviceSpec::mi250x_gcd();
        assert_eq!(wave_utilization(32, a100.wavefront_width), 1.0);
        assert_eq!(wave_utilization(32, mi.wavefront_width), 0.5);
    }

    #[test]
    fn memory_bound_kernel_time_scales_with_bytes() {
        let spec = DeviceSpec::a100();
        let base = LaunchProfile {
            bytes: 1e9,
            flops: 1e6,
            blocks: big_grid(),
            threads_per_block: 64,
            double_precision: false,
        };
        let t1 = kernel_time(&spec, &base);
        let t2 = kernel_time(&spec, &LaunchProfile { bytes: 2e9, ..base });
        let launch = spec.launch_latency_us * 1e-6;
        assert!(((t2 - launch) / (t1 - launch) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn compute_bound_kernel_uses_flop_path() {
        let spec = DeviceSpec::a100();
        let p = LaunchProfile {
            bytes: 1.0,
            flops: 1e12,
            blocks: big_grid(),
            threads_per_block: 64,
            double_precision: false,
        };
        let t = kernel_time(&spec, &p);
        let expected =
            spec.launch_latency_us * 1e-6 + 1e12 / (spec.flops_per_s(false) * spec.flop_efficiency);
        assert!((t - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn double_precision_uses_dp_peak() {
        let spec = DeviceSpec::epyc_trento();
        let p = LaunchProfile {
            bytes: 0.0,
            flops: 1e12,
            blocks: 1,
            threads_per_block: 128,
            double_precision: false,
        };
        let sp = kernel_time(&spec, &p);
        let dp = kernel_time(&spec, &LaunchProfile { double_precision: true, ..p });
        assert!(dp > sp, "DP flops must be slower on the CPU model");
    }

    #[test]
    fn underfilled_wavefront_slows_hip_more_than_cuda() {
        let a100 = DeviceSpec::a100();
        let mi = DeviceSpec::mi250x_gcd();
        let mk = |tpb| LaunchProfile {
            bytes: 1e9,
            flops: 1e6,
            blocks: big_grid(),
            threads_per_block: tpb,
            double_precision: false,
        };
        // On the A100, 32 vs 64 threads/block makes no difference.
        let a_32 = kernel_time(&a100, &mk(32));
        let a_64 = kernel_time(&a100, &mk(64));
        assert!((a_32 - a_64).abs() < 1e-12);
        // On the MI250X, 32-thread blocks lose the spec's
        // wave_mem_sensitivity share of half the bandwidth.
        let m_32 = kernel_time(&mi, &mk(32));
        let m_64 = kernel_time(&mi, &mk(64));
        let launch = mi.launch_latency_us * 1e-6;
        let expected_ratio = 1.0 / (1.0 - mi.wave_mem_sensitivity * 0.5);
        let measured_ratio = (m_32 - launch) / (m_64 - launch);
        assert!(measured_ratio > 1.0, "m_32={m_32} m_64={m_64}");
        assert!((measured_ratio - expected_ratio).abs() < 1e-9);
    }

    #[test]
    fn occupancy_derates_small_grids() {
        let spec = DeviceSpec::a100();
        let full = spec.compute_units as u64 * spec.occupancy_blocks_per_cu as u64;
        assert_eq!(occupancy_factor(&spec, full), 1.0);
        assert_eq!(occupancy_factor(&spec, full * 10), 1.0);
        assert!((occupancy_factor(&spec, full / 2) - 0.5).abs() < 1e-12);
        let p = |blocks| LaunchProfile {
            bytes: 1e9,
            flops: 0.0,
            blocks,
            threads_per_block: 64,
            double_precision: false,
        };
        assert!(kernel_time(&spec, &p(full / 4)) > kernel_time(&spec, &p(full)));
    }

    #[test]
    fn launch_latency_floors_empty_kernels() {
        let spec = DeviceSpec::mi250x_gcd();
        let p = LaunchProfile {
            bytes: 0.0,
            flops: 0.0,
            blocks: 1,
            threads_per_block: 64,
            double_precision: false,
        };
        assert_eq!(kernel_time(&spec, &p), spec.launch_latency_us * 1e-6);
    }

    #[test]
    fn memcpy_times() {
        let spec = DeviceSpec::a100();
        let t = memcpy_time(&spec, 24 * 1024 * 1024 * 1024);
        assert!((t - 1.0).abs() < 0.01, "24 GiB over 24 GiB/s ≈ 1 s, got {t}");
        // CPU "device" copies are free (same memory).
        assert_eq!(memcpy_time(&DeviceSpec::epyc_trento(), 1 << 30), 0.0);
    }
}
