//! # gpu-model
//!
//! A **simulated GPU substrate**: the paper's subject hardware (Nvidia A100,
//! AMD MI250X) is not available in this environment, so this crate provides
//! the closest synthetic equivalent that exercises the same code paths — a
//! HIP/CUDA-style runtime whose kernels run *functionally* on host threads
//! while their *execution times* come from an analytic device performance
//! model driven by the paper's Table 1 hardware numbers.
//!
//! Components:
//!
//! * [`specs`] — [`specs::DeviceSpec`] presets for the A100, the MI250X
//!   GCD, and the EPYC 7A53 "Trento" CPU (Table 1), including the
//!   calibration constants of the performance model;
//! * [`perf`] — the analytic kernel-time model: roofline
//!   (bytes vs HBM bandwidth, flops vs peak) extended with wavefront
//!   utilization (the 32-thread-block-on-64-lane-wavefront penalty at the
//!   heart of the paper's HIP-vs-CUDA gap), occupancy, and launch latency;
//! * [`timeline`] — streams and stream waits over a virtual clock, so
//!   `memcpyAsync`/kernel overlap behaves like the paper's Figures 1 & 6;
//! * [`memory`] — device memory arena with capacity accounting and OOM
//!   errors;
//! * [`runtime`] — the `Gpu` handle tying it together: `malloc`,
//!   `charge_memcpy`, `launch`, `synchronize`, mirroring the HIP runtime
//!   API (`hipMalloc`, `hipMemcpyAsync`, kernel launch, …);
//! * [`trace`] — span hooks that a rocprof-equivalent tracer (the
//!   `qsim-trace` crate) subscribes to.

pub mod error;
pub mod memory;
pub mod perf;
pub mod runtime;
pub mod specs;
pub mod timeline;
pub mod trace;

pub use error::GpuError;
pub use runtime::{Gpu, KernelDesc, KernelWork, StreamId};
pub use specs::{DeviceKind, DeviceSpec};
pub use trace::{SpanKind, TraceSink, TraceSpan};
