//! The worker pool: `N` threads draining the job queue.
//!
//! A job's run path is `worker_loop` → `run_unit` → `settle`, for
//! every job: the loop takes a unit from [`crate::queue::JobQueue::pop`]
//! (already charged to the bandwidth ledger), `run_unit` executes it, the
//! one `settle` turns each member's result into its terminal outcome, and
//! one finish sequence returns the charge ([`crate::queue::JobQueue::finish`])
//! before the outcomes are published. A single job is a gang of one; a
//! Batch-class gang shares one gate plan, one matrix upload per gate and
//! one sweep across every member's state
//! ([`qsim_backends::SimBackend::run_gang`]); a job admission routed
//! across several modeled devices runs the same walk over a sharded
//! placement ([`MultiGcdBackend::run_gang`]), with the same pooled buffer
//! and the same cancel token.
//!
//! Each worker lazily builds one `Device` per `(flavor, device count)`
//! it encounters and keeps it for the thread's lifetime, so a long-lived
//! service pays backend construction once, not per job. Buffers flow
//! pool → run → pool on every path: success hands the final state's
//! allocation back, and a cancelled, timed-out or failed run hands back
//! the recovered buffer from [`qsim_backends::RunFailure`]. Each worker
//! remembers the `(precision, length)` bucket it last touched and asks
//! the queue for matching work first, so its just-released buffer is
//! re-adopted warm.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

use qsim_backends::{
    BackendError, BatchResult, Flavor, FusionPlan, RunContext, RunOptions, SimBackend, SubIn,
};
use qsim_core::lockorder;
use qsim_core::types::{Float, Precision};
use qsim_core::AlignedAmps;
use qsim_distributed::MultiGcdBackend;

use crate::job::JobId;
use crate::pool::{PoolSlot, StateBufferPool};
use crate::queue::{BucketKey, QueuedJob};
use crate::service::{FinalState, JobOutcome, ServiceInner};

/// Wraps a precision's amplitudes into the type-erased [`FinalState`]
/// the registry stores for `keep_state` jobs.
trait StateSlot: PoolSlot {
    fn wrap(amps: AlignedAmps<Self>) -> FinalState;
}

impl StateSlot for f32 {
    fn wrap(amps: AlignedAmps<f32>) -> FinalState {
        FinalState::F32(amps)
    }
}

impl StateSlot for f64 {
    fn wrap(amps: AlignedAmps<f64>) -> FinalState {
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

/// What a worker runs a unit on: one modeled device, or several (the
/// placement is per geometry, hence the device count in the worker's map
/// key).
enum Device {
    One(SimBackend),
    Many(MultiGcdBackend),
}

impl Device {
    fn new(flavor: Flavor, devices: usize) -> Device {
        match devices {
            1 => Device::One(SimBackend::new(flavor)),
            _ => Device::Many(MultiGcdBackend::new(flavor, devices)),
        }
    }

    fn run_gang<F: Float>(&self, plan: &FusionPlan, subs: Vec<SubIn<F>>) -> Vec<BatchResult<F>> {
        match self {
            Device::One(backend) => backend.run_gang(plan, subs),
            Device::Many(backend) => backend.run_gang(plan, subs),
        }
    }
}

fn worker_loop(inner: &ServiceInner) {
    let mut devices: HashMap<(Flavor, usize), Device> = HashMap::new();
    let mut affinity: Option<BucketKey> = None;
    while let Some(mut unit) = inner.queue.pop(affinity, inner.max_batch) {
        // Members cancelled (or deadline-expired) while still queued never
        // touch a backend. mark_running_many is one registry round for
        // the entire gang — per-member lock traffic is exactly what
        // coalescing exists to amortize.
        let mut outcomes = Vec::new();
        let mut live = Vec::with_capacity(unit.jobs.len());
        for job in std::mem::take(&mut unit.jobs) {
            match job.cancel.cause() {
                Some(cause) => outcomes.push((job.id, JobOutcome::Cancelled(cause))),
                None => live.push(job),
            }
        }
        let ids: Vec<_> = live.iter().map(|job| job.id).collect();
        let mut may_run = inner.mark_running_many(&ids).into_iter();
        live.retain(|_| may_run.next().unwrap_or(false));
        if let Some(lead) = live.first() {
            // The cancelled members resolve now, not after the
            // survivors' run.
            inner.finish_many(std::mem::take(&mut outcomes));
            let device = devices
                .entry((lead.spec.flavor, lead.devices))
                .or_insert_with(|| Device::new(lead.spec.flavor, lead.devices));
            // A panicking run fails its members instead of taking the
            // worker down: the finish sequence below then returns their
            // charge and reservations and wakes their streams as for any
            // other failure. (Buffers it held are freed by the unwind.)
            let run = catch_unwind(AssertUnwindSafe(|| match lead.spec.precision {
                Precision::Single => run_unit::<f32>(device, &inner.pool, &live),
                Precision::Double => run_unit::<f64>(device, &inner.pool, &live),
            }));
            outcomes = run.unwrap_or_else(|payload| {
                let why = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                live.iter()
                    .map(|job| (job.id, JobOutcome::Failed(format!("worker panicked: {why}"))))
                    .collect()
            });
            if live.len() > 1 {
                inner.record_batch(live.len());
            }
            affinity = Some(lead.bucket());
        }
        // The unit is over (or never ran), so its modeled traffic is free
        // again. Settle the ledger BEFORE publishing terminal states — a
        // client that has observed every job terminal may rely on the
        // charge having been returned.
        inner.queue.finish(&unit);
        inner.finish_many(outcomes);
    }
}

/// In test builds, a job with this seed panics inside [`run_unit`].
pub(crate) const PANIC_SEED: u64 = 0xDEAD_5EED_0BAD_F00D;

/// Execute one unit at precision `F` — a gang sharing the lead's plan
/// (every member with its own pooled buffer, seed, sample count and
/// cancel token; a job routed across several devices dispatches alone,
/// `gang_compatible` excludes it) — and settle every member. Outcomes are
/// returned (not published) so the caller can settle the traffic ledger
/// first.
fn run_unit<F: StateSlot>(
    device: &Device,
    pool: &StateBufferPool,
    jobs: &[QueuedJob],
) -> Vec<(JobId, JobOutcome)> {
    // A backend run takes as long as the circuit does: no serve lock may
    // be held across it.
    lockorder::assert_none_held("worker::run_unit entered");
    if cfg!(test) && jobs.iter().any(|job| job.spec.seed == PANIC_SEED) {
        panic!("injected by a test");
    }
    let len = 1usize << jobs[0].spec.circuit.num_qubits;
    let subs = jobs
        .iter()
        .map(|job| {
            let opts = RunOptions { seed: job.spec.seed, sample_count: job.spec.sample_count };
            let reuse_buffer = pool.acquire::<F>(len);
            (opts, RunContext { reuse_buffer, cancel: Some(job.cancel.clone()) })
        })
        .collect();
    // gang_compatible matched every member's fused circuit to the lead's
    // by content hash at dispatch.
    let results = device.run_gang::<F>(&jobs[0].plan, subs);
    jobs.iter().zip(results).map(|(job, result)| (job.id, settle(pool, job, result))).collect()
}

/// Settle one job's run: a finished run's state is kept for the submitter
/// or released to the pool — the result verb only needs the report, so
/// the allocation is worth more as the next job's warm buffer; a failed
/// run releases whatever buffer rode back.
fn settle<F: StateSlot>(
    pool: &StateBufferPool,
    job: &QueuedJob,
    result: BatchResult<F>,
) -> JobOutcome {
    match result {
        Ok((state, report)) => {
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

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use qsim_circuit::library;

    use super::PANIC_SEED;
    use crate::job::{JobSpec, JobState};
    use crate::service::{Service, ServiceConfig};

    /// A panic inside a run fails the job, returns everything it held and
    /// leaves the one worker serving.
    #[test]
    fn a_panicking_run_fails_its_job_and_the_worker_survives() {
        let service = Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let mut doomed = JobSpec::new(library::ghz(6));
        doomed.seed = PANIC_SEED;
        let doomed = service.submit(doomed).expect("submit");
        let status = service.wait(doomed, Duration::from_secs(60)).expect("known id");
        assert_eq!(status.state, JobState::Failed);
        let error = status.error.unwrap_or_default();
        assert!(error.starts_with("worker panicked: injected by a test"), "{error}");

        let m = service.metrics();
        assert_eq!(m.reserved_bytes, 0, "reservation returned");
        assert_eq!(
            (m.bandwidth.running_bps, m.bandwidth.queued_bps, m.bandwidth.running_jobs),
            (0, 0, 0),
            "traffic charge returned"
        );
        assert_eq!((m.running, m.failed), (0, 1));

        let next = service.submit(JobSpec::new(library::ghz(6))).expect("submit");
        let status = service.wait(next, Duration::from_secs(60)).expect("known id");
        assert_eq!(status.state, JobState::Done, "the same worker runs the next job");
        service.shutdown();
    }
}
