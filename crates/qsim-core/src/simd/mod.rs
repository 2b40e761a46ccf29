//! Runtime-dispatched SIMD gate kernels.
//!
//! This is the CPU mirror of the paper's High/Low kernel split: where the
//! GPU keeps the lowest five qubits inside a 32-amplitude warp tile and
//! rearranges them with `ApplyGateL_Kernel`, the CPU keeps the lowest
//! `log2(lanes)` qubits inside one SIMD register tile and resolves gates
//! on them with in-register permutes. The ISA is picked once per process
//! with `is_x86_feature_detected!` and can be capped (or disabled
//! entirely) for benchmarking and reproducibility:
//!
//! * `QSIM_NO_SIMD=1` in the environment forces the scalar kernels;
//! * [`set_simd_enabled`] / [`set_isa_cap`] override programmatically
//!   (the CLI's `--no-simd` flag calls the former);
//! * under miri, and on non-x86 targets, detection always reports
//!   [`Isa::Scalar`] and the scalar kernels run — they are the
//!   always-available fallback, not a degraded mode.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::types::Precision;

#[cfg(all(target_arch = "x86_64", not(miri)))]
mod avx2;
#[cfg(all(target_arch = "x86_64", not(miri)))]
mod avx512;
mod kernel;
mod plan;
mod portable;

pub use plan::SimdPlan;

/// Instruction-set tiers the dispatcher can select, ordered weakest to
/// strongest so capping is a `min`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Isa {
    /// No SIMD: the scalar kernels in [`crate::kernels`] run.
    Scalar,
    /// AVX2 + FMA: 8 `f32` / 4 `f64` amplitudes per tile.
    Avx2,
    /// AVX-512F: 16 `f32` / 8 `f64` amplitudes per tile.
    Avx512,
}

impl Isa {
    /// Stable lowercase name, as reported in `RunReport::isa`.
    pub const fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
            Isa::Avx512 => "avx512",
        }
    }

    /// Complex amplitudes per SIMD tile at the given precision.
    pub const fn lanes(self, precision: Precision) -> usize {
        match (self, precision) {
            (Isa::Scalar, _) => 1,
            (Isa::Avx2, Precision::Single) => 8,
            (Isa::Avx2, Precision::Double) => 4,
            (Isa::Avx512, Precision::Single) => 16,
            (Isa::Avx512, Precision::Double) => 8,
        }
    }

    /// Number of qubits living inside one tile (`log2(lanes)`) — the CPU
    /// analogue of the GPU's `LOW_QUBIT_THRESHOLD`.
    pub const fn lane_qubits(self, precision: Precision) -> usize {
        self.lanes(precision).trailing_zeros() as usize
    }

    fn to_code(self) -> u8 {
        match self {
            Isa::Scalar => 1,
            Isa::Avx2 => 2,
            Isa::Avx512 => 3,
        }
    }

    fn from_code(code: u8) -> Option<Isa> {
        match code {
            1 => Some(Isa::Scalar),
            2 => Some(Isa::Avx2),
            3 => Some(Isa::Avx512),
            _ => None,
        }
    }
}

/// Best ISA the running CPU supports, detected once per process.
pub fn detected_isa() -> Isa {
    static DETECTED: OnceLock<Isa> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Isa::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return Isa::Avx2;
            }
        }
        Isa::Scalar
    })
}

/// Dispatch cap: 0 = unset (consult `QSIM_NO_SIMD`), otherwise an
/// [`Isa::to_code`] the dispatch may not exceed.
static ISA_CAP: AtomicU8 = AtomicU8::new(0);

fn env_no_simd() -> bool {
    static NO_SIMD: OnceLock<bool> = OnceLock::new();
    *NO_SIMD
        .get_or_init(|| std::env::var_os("QSIM_NO_SIMD").is_some_and(|v| !v.is_empty() && v != "0"))
}

/// Cap dispatch at `cap` (e.g. force AVX2 on an AVX-512 host for A/B
/// benchmarking), or `None` to restore auto-detection. The cap is a
/// ceiling: it never enables an ISA the CPU lacks.
pub fn set_isa_cap(cap: Option<Isa>) {
    ISA_CAP.store(cap.map_or(0, Isa::to_code), Ordering::Relaxed);
}

/// Enable or disable the SIMD kernels process-wide. Disabling is
/// equivalent to capping at [`Isa::Scalar`]. An explicit call takes
/// precedence over the `QSIM_NO_SIMD` environment default.
pub fn set_simd_enabled(enabled: bool) {
    set_isa_cap(if enabled { Some(Isa::Avx512) } else { Some(Isa::Scalar) });
}

/// The ISA gate applications dispatch to right now: detection, capped by
/// [`set_isa_cap`] / [`set_simd_enabled`] / `QSIM_NO_SIMD`.
pub fn active_isa() -> Isa {
    let detected = detected_isa();
    match Isa::from_code(ISA_CAP.load(Ordering::Relaxed)) {
        Some(cap) => detected.min(cap),
        None if env_no_simd() => Isa::Scalar,
        None => detected,
    }
}
