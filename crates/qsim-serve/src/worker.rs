//! The worker pool: `N` threads draining the job queue.
//!
//! Each worker lazily builds one [`SimBackend`] per flavor it encounters
//! and keeps it for the thread's lifetime, so a long-lived service pays
//! backend construction once, not per job. Buffers flow pool → run →
//! pool on every path: success hands the final state's allocation back,
//! and a cancelled, timed-out or failed run hands back the recovered
//! buffer from [`qsim_backends::RunFailure`].
//!
//! Dispatch goes through [`crate::queue::JobQueue::pop_work`], which
//! enforces the modeled-bandwidth gate and may hand back a **gang** of
//! hash-equal Batch-class jobs; gangs run through
//! [`SimBackend::run_batch`] — one gate plan, one matrix upload per gate,
//! one sweep across every member's state. Each worker remembers the
//! `(precision, length)` bucket it last touched and asks the queue for
//! matching work first, so its just-released buffer is re-adopted warm.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread::JoinHandle;

use qsim_backends::batch_run::{BatchJob, BatchResult};
use qsim_backends::{BackendError, Flavor, RunContext, RunFailure, RunOptions, SimBackend};
use qsim_core::types::Precision;
use qsim_distributed::MultiGcdBackend;

use qsim_core::types::{Cplx, Float};

use crate::pool::{PoolSlot, StateBufferPool};
use crate::queue::{BucketKey, QueuedJob};
use crate::service::{FinalState, JobOutcome, ServiceInner};

/// Wraps a precision's amplitudes into the type-erased [`FinalState`]
/// the registry stores for `keep_state` jobs.
trait StateSlot: PoolSlot {
    fn wrap(amps: Vec<Cplx<Self>>) -> FinalState;
}

impl StateSlot for f32 {
    fn wrap(amps: Vec<Cplx<f32>>) -> FinalState {
        FinalState::F32(amps)
    }
}

impl StateSlot for f64 {
    fn wrap(amps: Vec<Cplx<f64>>) -> FinalState {
        FinalState::F64(amps)
    }
}

/// Handles of the spawned worker threads.
#[derive(Debug)]
pub struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawn `n` workers against the shared service state.
    pub(crate) fn spawn(n: usize, inner: Arc<ServiceInner>) -> WorkerPool {
        let handles = (0..n)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("qsim-serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool { handles }
    }

    /// Number of worker threads.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// Always false — a pool has at least one worker.
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// Wait for every worker to exit (they do once the queue is closed
    /// and drained).
    pub fn join(self) {
        for handle in self.handles {
            // A worker that panicked already poisoned nothing (registry
            // and pool recover their locks); surface the panic here.
            if let Err(e) = handle.join() {
                std::panic::resume_unwind(e);
            }
        }
    }
}

fn worker_loop(inner: &ServiceInner) {
    let mut backends: HashMap<Flavor, SimBackend> = HashMap::new();
    // Sharded (multi-GCD) backends, keyed by flavor *and* device count:
    // the device timeline array and comm streams are per-geometry state.
    let mut dist_backends: HashMap<(Flavor, usize), MultiGcdBackend> = HashMap::new();
    let mut affinity: Option<BucketKey> = None;
    while let Some(unit) = inner.queue.pop_work(&inner.admission, affinity, inner.max_batch) {
        // Members cancelled (or deadline-expired) while still queued never
        // touch a backend: resolve them (one lock round for the whole
        // set) and run whatever is left. mark_running_many is likewise one
        // registry round for the entire gang — per-member lock traffic is
        // exactly what coalescing exists to amortize.
        let mut cancelled = Vec::new();
        let mut runnable = Vec::with_capacity(unit.jobs.len());
        for job in unit.jobs {
            match job.cancel.cause() {
                Some(cause) => cancelled.push((job.id, cause)),
                None => runnable.push(job),
            }
        }
        let ids: Vec<_> = runnable.iter().map(|job| job.id).collect();
        let verdicts = inner.mark_running_many(&ids);
        let mut live = runnable;
        let mut keep = verdicts.into_iter();
        live.retain(|_| keep.next().unwrap_or(false));
        if live.is_empty() {
            // Nothing runs: settle the unit's modeled traffic *before*
            // the cancellations become observable, so "every job is
            // terminal" always implies the bandwidth charge was
            // returned.
            inner.admission.finish_traffic(unit.running_bps);
            if !cancelled.is_empty() {
                inner.cancel_many(cancelled);
            }
            inner.queue.notify();
            continue;
        }
        if !cancelled.is_empty() {
            inner.cancel_many(cancelled);
        }
        let flavor = live[0].spec.flavor;
        let outcomes: Vec<(crate::job::JobId, JobOutcome)> = if live[0].devices > 1 {
            // A routed (sharded) job always dispatches alone —
            // gang_compatible excludes multi-device jobs.
            debug_assert_eq!(live.len(), 1);
            let job = &live[0];
            let backend = dist_backends
                .entry((flavor, job.devices))
                .or_insert_with(|| MultiGcdBackend::new(flavor, job.devices));
            let outcome = match job.spec.precision {
                Precision::Single => run_sharded::<f32>(backend, inner, job),
                Precision::Double => run_sharded::<f64>(backend, inner, job),
            };
            vec![(job.id, outcome)]
        } else {
            let backend = backends.entry(flavor).or_insert_with(|| SimBackend::new(flavor));
            let outcomes = match (live.len(), live[0].spec.precision) {
                (1, Precision::Single) => {
                    vec![(live[0].id, run_job::<f32>(backend, &inner.pool, &live[0]))]
                }
                (1, Precision::Double) => {
                    vec![(live[0].id, run_job::<f64>(backend, &inner.pool, &live[0]))]
                }
                (_, Precision::Single) => run_gang::<f32>(backend, inner, &live),
                (_, Precision::Double) => run_gang::<f64>(backend, inner, &live),
            };
            if live.len() > 1 {
                inner.record_batch(live.len());
            }
            outcomes
        };
        affinity = Some(live[0].bucket());
        // The run is over, so the unit's modeled traffic is free again.
        // Settle the ledger BEFORE publishing terminal states — a client
        // that has observed every job terminal may rely on the charge
        // having been returned — then wake the other workers (a deferred
        // job may now be admissible).
        inner.admission.finish_traffic(unit.running_bps);
        inner.finish_many(outcomes);
        inner.queue.notify();
    }
}

/// Settle one job's run: a finished run is stamped with the job's plan
/// (planning happened once, at submission) and its state kept for the
/// submitter or released to the pool — the result verb only needs the
/// report, so the allocation is worth more as the next job's warm buffer;
/// a failed run releases whatever buffer rode back.
fn settle<F: StateSlot>(
    pool: &StateBufferPool,
    job: &QueuedJob,
    result: BatchResult<F>,
) -> JobOutcome {
    match result {
        Ok((state, mut report)) => {
            report.fusion_strategy = job.plan.strategy.label().into();
            report.predicted_cost_seconds = job.plan.predicted_cost_seconds;
            let kept = if job.spec.keep_state {
                Some(F::wrap(state.into_amplitudes()))
            } else {
                pool.release(state.into_amplitudes());
                None
            };
            JobOutcome::Done(Arc::new(report), kept)
        }
        Err(failure) => {
            if let Some(buffer) = failure.buffer {
                pool.release(buffer);
            }
            match failure.error {
                BackendError::Cancelled { cause, .. } => JobOutcome::Cancelled(cause),
                error => JobOutcome::Failed(error.to_string()),
            }
        }
    }
}

/// Execute one job at precision `F`, recycling the state buffer through
/// the pool on every exit path.
fn run_job<F: StateSlot>(
    backend: &SimBackend,
    pool: &StateBufferPool,
    job: &QueuedJob,
) -> JobOutcome {
    let len = 1usize << job.spec.circuit.num_qubits;
    let run_opts = RunOptions { seed: job.spec.seed, sample_count: job.spec.sample_count };
    let ctx =
        RunContext::<F> { reuse_buffer: pool.acquire::<F>(len), cancel: Some(job.cancel.clone()) };
    settle(pool, job, backend.run_with::<F>(&job.plan.fused, &run_opts, ctx))
}

/// Execute one admission-routed sharded job on the multi-GCD backend.
///
/// The state never fits a pooled buffer as one allocation path — the
/// backend holds it as per-device shards — so the pool is only touched
/// on the way out: the gathered final state is released into the pool
/// (or kept for the submitter). The cancel token is honored up to
/// launch; the distributed sweep itself has no per-gate cancel points
/// (its shards advance in lockstep, and a routed job already paid
/// planning + reservation — let it finish).
fn run_sharded<F: StateSlot + Float>(
    backend: &MultiGcdBackend,
    inner: &ServiceInner,
    job: &QueuedJob,
) -> JobOutcome {
    if let Some(cause) = job.cancel.cause() {
        return JobOutcome::Cancelled(cause);
    }
    let run_opts = RunOptions { seed: job.spec.seed, sample_count: job.spec.sample_count };
    let result = backend.run_plan::<F>(&job.plan, &run_opts);
    settle(&inner.pool, job, result.map_err(|error| RunFailure { error, buffer: None }))
}

/// Execute a gang of gang-compatible jobs through `run_batch`: every
/// member gets its own pooled buffer, seed, sample count and cancel
/// token, but the gate plan, matrix conversions and sweep passes are paid
/// once for the whole gang. Per-member outcomes are returned (not
/// published) so the caller can settle the traffic ledger first.
fn run_gang<F: StateSlot>(
    backend: &SimBackend,
    inner: &ServiceInner,
    jobs: &[QueuedJob],
) -> Vec<(crate::job::JobId, JobOutcome)> {
    let len = 1usize << jobs[0].spec.circuit.num_qubits;
    let batch: Vec<BatchJob<'_, F>> = jobs
        .iter()
        .map(|job| BatchJob {
            fused: Some(&job.plan.fused),
            opts: RunOptions { seed: job.spec.seed, sample_count: job.spec.sample_count },
            ctx: RunContext {
                reuse_buffer: inner.pool.acquire::<F>(len),
                cancel: Some(job.cancel.clone()),
            },
        })
        .collect();
    let results = backend.run_batch::<F>(batch);
    jobs.iter()
        .zip(results)
        .map(|(job, result)| (job.id, settle(&inner.pool, job, result)))
        .collect()
}
