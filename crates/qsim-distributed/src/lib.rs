//! # qsim-distributed
//!
//! Multi-GCD distributed state-vector backend — the paper's stated future
//! work (§7: *"the multi-GPU porting for the HIP backend is an important
//! goal … offering the prospect of simulating … larger qubit counts"*),
//! built in the style of qsim/Qiskit *cache blocking* (Doi & Horii 2020,
//! cited by the paper) and cuQuantum's multi-GPU state-vector layout.
//!
//! The `2^n` amplitudes are sharded over `D = 2^d` modeled devices: the
//! top `d` physical qubit slots select the device ("global" qubits), the
//! rest index into each device's local buffer. Gates whose targets are
//! all local run concurrently on every device with no communication;
//! a gate touching a global slot first *swaps* that slot with a free
//! local slot — a pairwise half-buffer exchange between device pairs over
//! the modeled Infinity Fabric links — after which it, too, is local.
//! A logical→physical [`QubitLayout`] permutation tracks the swap history
//! so amplitudes are unscrambled only once, at the end of the run.
//!
//! This crate plans and prices; it does not walk. A run is the
//! single-device walker of `qsim-backends` over the
//! [`qsim_backends::Placement`] [`MultiGcdBackend`] builds.

pub mod backend;
pub mod cost;
pub mod interconnect;
pub mod schedule;

pub use backend::MultiGcdBackend;
pub use cost::DistCostModel;
pub use interconnect::LinkSpec;
pub use qsim_backends::{DistReport, QubitLayout, EXCHANGE_KERNEL};
pub use schedule::{DistOptions, Epoch, ScheduleError, SwapPolicy, SwapSchedule};
