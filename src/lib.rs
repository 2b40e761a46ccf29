//! # qsim-rs
//!
//! A Rust reproduction of Google's **qsim** state-vector quantum-circuit
//! simulator and of the SC-W 2023 paper *"Enabling Quantum Computer
//! Simulations on AMD GPUs: a HIP Backend for Google's qsim"*
//! (S. Markidis), built on a **simulated GPU substrate**: the paper's
//! A100/MI250X hardware is modeled analytically while every backend
//! computes real amplitudes on host threads.
//!
//! ```
//! use qsim_rs::prelude::*;
//!
//! // Build a Bell circuit, fuse it, run it on the modeled HIP/MI250X
//! // backend in single precision.
//! let circuit = qsim_rs::circuit::library::bell();
//! let (state, report) = qsim_rs::simulate::<f32>(&circuit, Flavor::Hip, 2).unwrap();
//! assert!((state.amplitude(0).re - std::f32::consts::FRAC_1_SQRT_2).abs() < 1e-6);
//! assert_eq!(report.backend, "hip");
//! ```
//!
//! The heavy lifting lives in the workspace crates, re-exported here:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`sim`] | `qsim-core` | state vector, gate kernels, measurement, sampling |
//! | [`circuit`] | `qsim-circuit` | gate set, circuit IR, qsim file format, RQC generator |
//! | [`fusion`] | `qsim-fusion` | gate-fusion transpiler |
//! | [`gpu`] | `gpu-model` | simulated HIP/CUDA runtime + device performance model |
//! | [`backends`] | `qsim-backends` | CPU / CUDA / cuStateVec / HIP backends |
//! | [`trace`] | `qsim-trace` | rocprof-style profiler, Perfetto JSON export |

pub use gpu_model as gpu;
pub use qsim_backends as backends;
pub use qsim_circuit as circuit;
pub use qsim_core as sim;
pub use qsim_distributed as distributed;
pub use qsim_fusion as fusion;
pub use qsim_hybrid as hybrid;
pub use qsim_trace as trace;

use backends::{BackendError, Flavor, RunOptions, RunReport, SimBackend};
use circuit::Circuit;
use fusion::fuse;
use sim::types::Float;
use sim::StateVector;

/// One-call convenience: fuse `circuit` with `max_fused_qubits` and run it
/// on a fresh backend of the given flavor from `|0…0⟩`.
pub fn simulate<F: Float>(
    circuit: &Circuit,
    flavor: Flavor,
    max_fused_qubits: usize,
) -> Result<(StateVector<F>, RunReport), BackendError> {
    let fused = fuse(circuit, max_fused_qubits);
    SimBackend::new(flavor).run::<F>(&fused, &RunOptions::default())
}

/// Everything a typical user needs in scope.
pub mod prelude {
    pub use crate::backends::{
        Flavor, NoiseSpec, RunOptions, RunReport, SimBackend, TrajectoryRunner,
    };
    pub use crate::circuit::{gates::GateKind, Circuit, CircuitBuilder, GateOp, RqcOptions};
    pub use crate::distributed::MultiGcdBackend;
    pub use crate::fusion::{fuse, FusedCircuit};
    pub use crate::hybrid::HybridSimulator;
    pub use crate::sim::observables::{Pauli, PauliString, PauliSum};
    pub use crate::sim::{statespace, Cplx, Float, Precision, StateVector};
    pub use crate::trace::Profiler;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_simulate_bell() {
        let circuit = circuit::library::bell();
        let (state, report) = simulate::<f64>(&circuit, Flavor::Cuda, 2).unwrap();
        let h = std::f64::consts::FRAC_1_SQRT_2;
        assert!((state.amplitude(0).re - h).abs() < 1e-12);
        assert!((state.amplitude(3).re - h).abs() < 1e-12);
        assert_eq!(report.num_qubits, 2);
    }
}
