//! # qsim-backends
//!
//! Simulator backends over the fused-circuit IR, mirroring the paper's
//! four execution configurations:
//!
//! | Flavor | Models | Paper role |
//! |---|---|---|
//! | [`Flavor::CpuAvx`] | AMD EPYC 7A53 "Trento", 128 OpenMP threads | the CPU baseline of Figure 7 |
//! | [`Flavor::Cuda`] | qsim's CUDA backend on an Nvidia A100 | Figure 9 |
//! | [`Flavor::CuStateVec`] | the cuQuantum `cuStateVec` backend on the A100 | Figure 9 |
//! | [`Flavor::Hip`] | the hipified backend on one MI250X GCD | Figures 1, 6, 7, 8, 9 |
//!
//! Every backend computes **bit-identical amplitudes** (the same
//! functional kernels run on host threads — the Rust analogue of the
//! hipified code being a line-for-line port of the CUDA code), while the
//! simulated device timeline yields per-backend *modeled* execution times.
//! The architectural difference the paper identifies survives the port:
//! the HIP flavor launches `ApplyGateL_Kernel` with 32-thread blocks on a
//! 64-lane wavefront device.
//!
//! What a flavor's launches cost is decided in one place:
//! [`Flavor::launch_policy`] fills in a [`LaunchPolicy`], the plan walker
//! charges every gate through [`plan::gate_kernel_desc`] (a kernel symbol
//! around [`LaunchPolicy::gate_profile`]), and [`SimBackend::cost_model`]
//! is a [`LaunchCostModel`] over the same policy — so the fusion planner
//! predicts exactly the gate seconds the timeline is then charged.

pub mod batch_run;
pub mod flavor;
pub mod placement;
pub mod plan;
pub mod report;
pub mod sim_backend;
pub mod trajectories;
pub mod variational;
mod walker;

pub use batch_run::{BatchJob, BatchResult, SubIn};
pub use flavor::Flavor;
pub use placement::{Exchange, Placement, Placer, QubitLayout, EXCHANGE_KERNEL};
pub use plan::FusionPlan;
pub use qsim_core::cancel::{CancelCause, CancelToken};
pub use qsim_core::sweep::{SweepConfig, SweepStats};
pub use qsim_fusion::{
    FusionCostModel, FusionStats, FusionStrategy, LaunchCostModel, LaunchPolicy, TrafficEstimate,
};
pub use report::{DistReport, GateClassCount, KernelStat, RunOptions, RunReport};
pub use sim_backend::{BackendError, PlanOptions, RunContext, RunFailure, SimBackend};
pub use trajectories::{NoiseSpec, TrajectoryRunner};
