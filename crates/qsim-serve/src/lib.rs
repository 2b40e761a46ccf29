//! # qsim-serve
//!
//! A long-lived, multi-tenant simulation job service over the modeled
//! backends — the deployment shape the paper's single-shot `qsim_base`
//! binary cannot provide. One process owns a fleet of worker threads and
//! a pool of recycled state-vector buffers; clients submit circuits over
//! a newline-delimited JSON protocol and poll for results.
//!
//! A job has one path through the crate, with four choke points (see
//! DESIGN.md §"Service layer" for the diagram): [`Service::submit_many`]
//! takes it in, [`JobQueue::pop`] dispatches it, `worker::run_unit` runs
//! it and `worker::settle` turns its result into a terminal state. The
//! subsystem is six cooperating parts:
//!
//! - [`JobQueue`] — priority classes ([`Priority::High`] /
//!   [`Priority::Normal`] / [`Priority::Batch`]), FIFO within a class,
//!   condvar-blocked workers; [`JobQueue::push`] and [`JobQueue::pop`]
//!   are the only way in and out. It is also the modeled-bandwidth
//!   ledger: each job's fusion plan predicts its memory traffic
//!   (bytes/s), `pop` caps the aggregate streaming rate of running units
//!   — the gate is decided, charged and ([`JobQueue::finish`]) released
//!   under the queue lock — and a deep backlog sheds load at `push` with
//!   the typed [`AdmissionError::Saturated`]. Dispatch is **coalescing**:
//!   compatible Batch-class jobs (hash-equal fused circuits, same shape)
//!   are handed out as a gang and run through
//!   [`qsim_backends::SimBackend::run_gang`] — one gate plan and one
//!   matrix upload per gate for the whole gang.
//! - [`WorkerPool`] — `N` threads, each owning one backend per
//!   `(flavor, device count)` it has seen, draining the queue until
//!   shutdown. Each worker remembers the size bucket it last touched and
//!   asks for matching work first (buffer affinity).
//! - [`StateBufferPool`] — size-bucketed recycling of the multi-GiB
//!   amplitude allocations; a warm 30-qubit buffer turns the dominant
//!   per-job setup cost (allocate + fault 8–16 GiB) into a memset.
//!   Acquisition is MRU (cache-warm), over-cap eviction is LRU.
//! - [`AdmissionController`] — the memory budget, computed from qubit
//!   count × precision; an over-budget submission is **rejected with
//!   backpressure** ([`AdmissionError`] carrying `retry_after`), it never
//!   OOMs a worker.
//! - the wire protocol ([`protocol`]) and its TCP front end, the
//!   multiplexed [`mux`] server (a fixed pool of I/O threads, each owning
//!   many nonblocking connections, with streamed sample frames and
//!   per-connection write backpressure). Verbs: `submit`, `status`, `result`, `cancel`,
//!   `metrics`, `shutdown`; `result` returns the run's
//!   [`qsim_backends::RunReport`] JSON.
//! - content-addressed caching ([`qsim_cache`]) — a circuit table that
//!   parses each distinct submitted text once into a [`SharedCircuit`],
//!   a byte-budgeted plan cache keyed by `Circuit::content_hash` × plan
//!   settings (each holds the plan-cache budget on its own), and a result cache
//!   additionally keyed by seed and shot count whose occupancy is
//!   charged through the admission ledger, so repeat submissions return
//!   `Done` without parsing or touching a worker.
//!
//! Cancellation and deadlines ride on [`qsim_core::cancel::CancelToken`]:
//! the backend polls the token at every gate-application (and sweep-block)
//! boundary, and a cancelled or timed-out job releases its buffer back to
//! the pool while its worker moves on to the next job.

pub mod admission;
mod circuits;
pub mod job;
pub mod mux;
pub mod pool;
pub mod protocol;
pub mod queue;
mod registry;
pub mod service;
pub mod worker;

pub use admission::{AdmissionController, AdmissionError, Reservation};
pub use circuits::SharedCircuit;
pub use job::{JobId, JobSpec, JobState, Priority};
pub use mux::{IoStats, MuxServer, ShutdownHandle, DEFAULT_IO_THREADS};
pub use pool::{BucketStats, PoolStats, StateBufferPool};
pub use queue::{
    BandwidthSnapshot, JobQueue, WorkUnit, DEFAULT_BANDWIDTH_BUDGET_BPS, RESIDENT_BYTES,
};
pub use registry::{EXPIRED_ERROR, RETAINED_TERMINAL};
pub use service::{
    FinalState, JobStatus, Metrics, ResultError, Service, ServiceConfig, SubmitError,
    DEFAULT_MAX_BATCH, DEFAULT_PLAN_CACHE_BUDGET, DEFAULT_RESULT_CACHE_BUDGET,
};
pub use worker::WorkerPool;
