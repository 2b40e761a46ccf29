//! # qsim-core
//!
//! State-vector quantum computer simulator core, a Rust reimplementation of
//! the computational heart of Google's [qsim](https://github.com/quantumlib/qsim).
//!
//! A system of `n` qubits is represented by a *state vector* of `2^n` complex
//! amplitudes. Quantum gates are unitary matrices applied to the state vector
//! in place with a matrix-free algorithm: a `k`-qubit gate is a
//! `2^k × 2^k` matrix applied to every group of `2^k` amplitudes whose
//! indices differ only in the `k` target-qubit bit positions.
//!
//! The crate provides:
//!
//! * [`Cplx`] and the [`Float`] abstraction so every algorithm is generic
//!   over `f32` (single precision) and `f64` (double precision) — the
//!   precision axis of the paper's Figure 8;
//! * [`GateMatrix`], dense small complex matrices with the tensor/matrix
//!   product algebra used by gate fusion;
//! * [`StateVector`], the `2^n` amplitude array, held like every state
//!   buffer in an [`AlignedAmps`] ([`amps`]);
//! * [`kernels`], sequential and rayon-parallel gate-application kernels,
//!   including the *high/low qubit split* that mirrors qsim's
//!   `ApplyGateH_Kernel` / `ApplyGateL_Kernel` division;
//! * [`statespace`], state-space operations (norm, inner product, sampling,
//!   measurement, expectation values) mirroring qsim's `StateSpace` class;
//! * [`sweep`], a cache-blocked multi-gate sweep executor that applies runs
//!   of consecutive low-qubit fused gates to cache-sized blocks in a single
//!   pass over the state — the CPU analogue of the shared-memory
//!   `ApplyGateL_Kernel` design;
//! * [`simd`], runtime-dispatched AVX2/AVX-512 gate kernels with a
//!   lane-level Low path — the CPU mirror of the warp-tile rearrangement,
//!   keeping the lowest `log2(lanes)` qubits inside one SIMD register;
//! * [`batch`], a gang of same-size state vectors ([`batch::StateBatch`])
//!   plus batched kernel entry points that apply one fused gate — or one
//!   prepared cache-blocked run — to every state of the gang, amortizing
//!   plan construction across N states (the cuQuantum-style batched
//!   execution path used by the serve layer);
//! * [`noise`], quantum-trajectory noise channels (a qsim feature the paper
//!   mentions as part of the simulator but does not benchmark);
//! * [`diag`], the typed-diagnostic vocabulary ([`diag::Diagnostic`],
//!   [`diag::Severity`], [`diag::Span`]) shared by `Circuit::validate()`
//!   and the `qsim-analyze` lint engine;
//! * [`lockorder`], the tracked [`lockorder::Mutex`] the serve layer
//!   locks through and the debug-build lock-order tracker behind it: an
//!   inversion panics at the acquisition site.

pub mod amps;
pub mod batch;
pub mod cancel;
pub mod density;
pub mod diag;
pub mod entropy;
pub mod kernels;
pub mod lockorder;
pub mod matrix;
pub mod noise;
pub mod observables;
pub mod simd;
pub mod stablehash;
pub mod statespace;
pub mod statevec;
pub mod sweep;
pub mod types;

pub use amps::AlignedAmps;
pub use cancel::{CancelCause, CancelToken};
pub use matrix::GateMatrix;
pub use statevec::StateVector;
pub use types::{Cplx, Float, Precision};

/// Threshold separating "high" from "low" qubit indices in the GPU kernel
/// split: qubits with index `< LOW_QUBIT_THRESHOLD` require intra-warp data
/// shuffling (`ApplyGateL_Kernel`), those `>= LOW_QUBIT_THRESHOLD` map to a
/// straightforward strided access pattern (`ApplyGateH_Kernel`).
///
/// qsim derives this from the 32 amplitudes held per warp in shared memory:
/// `log2(32) = 5`.
pub const LOW_QUBIT_THRESHOLD: usize = 5;
