//! The job queue: the one way a job gets from submission to a worker.
//!
//! [`JobQueue::push`] takes accepted jobs in, [`JobQueue::pop`] hands a
//! worker its next unit, [`JobQueue::finish`] takes the unit's charge
//! back. Three priority classes, FIFO within a class; built on the
//! tracked [`qsim_core::lockorder::Mutex`] and a `Condvar` its guard
//! waits on. [`JobQueue::close`] wakes every blocked worker,
//! after which pops drain whatever is still queued and then return `None`
//! — that drain is what makes service shutdown graceful rather than lossy.
//!
//! The queue also *is* the modeled-bandwidth ledger (qHiPSTER's
//! bandwidth-centric accounting, applied to scheduling): every job
//! carries an estimated DRAM traffic rate ([`QueuedJob::demand_bps`]),
//! and the levels — queued backlog, running charge, running units — are
//! plain integers beside the job lists, behind the same mutex. So the
//! invariant holds by construction: **the gate is decided, charged and
//! released under the queue lock.** A worker that reads "this job fits"
//! has charged it before any other worker can read the ledger, and a
//! release cannot slip between a blocked worker's check and its wait.
//!
//! Dispatch refinements over plain FIFO:
//!
//! - **Bandwidth gate** — a job only starts while the aggregate rate of
//!   running units plus its own stays within the budget; with nothing
//!   running, the front job always starts, so the gate cannot deadlock
//!   the queue. Submissions are refused (typed
//!   [`AdmissionError::Saturated`]) only once the *backlog* exceeds
//!   [`BACKLOG_OVERCOMMIT`] × the budget — load shedding, not scheduling.
//! - **Size affinity** — within a bounded window at the front of a class,
//!   a worker prefers a job whose `(precision, state length)` matches the
//!   buffer bucket it last touched, so its released buffer is re-adopted
//!   cache-warm instead of ping-ponging between workers.
//! - **Gang coalescing** — when the selected job is `Batch`-class, up to
//!   `max_batch − 1` further Batch jobs with the same fused-circuit
//!   content hash (and flavor/precision/plan settings) are drained with
//!   it and run as one gang: one gate plan, one matrix upload, one sweep
//!   across all member states.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar};
use std::time::Duration;

use qsim_backends::{FusionPlan, SimBackend};
use qsim_core::cancel::CancelToken;
use qsim_core::lockorder::Mutex;
use qsim_core::types::Precision;

use crate::admission::{AdmissionError, DEFAULT_RETRY_AFTER};
use crate::job::{JobId, JobSpec, Priority};

/// `(precision, amplitude count)` — the buffer-pool bucket a job's state
/// lives in, and the key of the worker size-affinity heuristic.
pub type BucketKey = (Precision, usize);

/// State bytes below which a job is considered last-level-cache resident
/// and charges the bandwidth ledger proportionally less (one worker's
/// fair share of the modeled socket's L3).
pub const RESIDENT_BYTES: u64 = 64 << 20;

/// Default modeled-bandwidth budget, bytes/s. Roughly twice the modeled
/// EPYC "Trento" socket bandwidth: enough for two streaming 24-qubit
/// jobs side by side (the measured throughput knee) while any number of
/// cache-resident small jobs pass untouched.
pub const DEFAULT_BANDWIDTH_BUDGET_BPS: u64 = 400 << 30;

/// Backlog multiple of the bandwidth budget past which submissions are
/// shed with [`AdmissionError::Saturated`].
pub const BACKLOG_OVERCOMMIT: u64 = 64;

/// How deep into a priority class the affinity preference may look before
/// strict FIFO wins (bounds how far a front job can be bypassed).
const AFFINITY_WINDOW: usize = 8;

/// How often a worker re-examines a queue whose jobs are all behind the
/// bandwidth gate: a queued job's cancel token (explicit, or a deadline
/// passing) makes it dispatchable with no event to announce it.
const GATED_POLL: Duration = Duration::from_millis(5);

/// One queued unit of work: the spec, the plan built at submission (the
/// worker runs it as-is — planning is paid once, not per dispatch), the
/// modeled traffic demand, and the cancel token the service registry
/// shares so a job cancelled while still queued is observed by the worker
/// before it runs a single gate.
#[derive(Debug)]
pub struct QueuedJob {
    /// Registry handle.
    pub id: JobId,
    /// What to run.
    pub spec: JobSpec,
    /// The checked plan, built (or fetched from the service's plan cache)
    /// once at submission and shared by every job with the same circuit.
    pub plan: Arc<FusionPlan>,
    /// Modeled traffic rate charged to the bandwidth ledger, bytes/s.
    pub demand_bps: u64,
    /// Content hash of the fused circuit (gang-compat grouping).
    pub fused_hash: u64,
    /// Modeled devices the job runs across: `1` for the ordinary
    /// single-device path, a power of two > 1 when admission routed a
    /// `TooLarge` state through the sharded multi-GCD backend.
    pub devices: usize,
    /// Shared with the registry's record; may fire while queued.
    pub cancel: CancelToken,
}

impl QueuedJob {
    /// Plan a spec's circuit for its backend, and prepare the plan's gates
    /// for a worker's walks — the per-unique-circuit work the service
    /// caches by circuit content hash across hash-equal submissions.
    pub fn plan_spec(spec: &JobSpec) -> FusionPlan {
        let backend = SimBackend::new(spec.flavor);
        let opts = qsim_backends::PlanOptions {
            strategy: spec.strategy,
            max_fused_qubits: spec.max_fused,
        };
        let plan = backend.plan_circuit(&spec.circuit, &opts, spec.precision);
        backend.prepare(&plan, spec.precision);
        plan
    }

    /// Build a single-device queued job around its plan and the plan's
    /// fused content hash (both shared via the service's plan cache),
    /// pricing its modeled traffic: the fusion cost model's per-run
    /// [`qsim_backends::TrafficEstimate`] rate, scaled by how much of the
    /// state actually streams through DRAM (a state far smaller than the
    /// cache share re-reads silicon, not memory).
    pub fn new(
        id: JobId,
        spec: JobSpec,
        cancel: CancelToken,
        plan: Arc<FusionPlan>,
        fused_hash: u64,
    ) -> QueuedJob {
        let resident = (spec.state_bytes() as f64 / RESIDENT_BYTES as f64).min(1.0);
        let demand_bps = (plan.predicted_traffic.bytes_per_second() * resident).round() as u64;
        QueuedJob { id, spec, plan, demand_bps, fused_hash, devices: 1, cancel }
    }

    /// The buffer-pool bucket this job's state occupies.
    pub fn bucket(&self) -> BucketKey {
        (self.spec.precision, 1usize << self.spec.circuit.num_qubits)
    }

    /// Whether `other` may ride in the same gang: identical fused circuit
    /// (by content hash) under identical backend/precision/plan settings.
    /// Seeds, sample counts, deadlines and `keep_state` may differ — they
    /// are per-member inputs of the gang's run.
    pub fn gang_compatible(&self, other: &QueuedJob) -> bool {
        // Sharded jobs run alone: the gang sweep is a single-device pass.
        self.devices == 1
            && other.devices == 1
            && self.fused_hash == other.fused_hash
            && self.spec.flavor == other.spec.flavor
            && self.spec.precision == other.spec.precision
            && self.spec.strategy == other.spec.strategy
            && self.spec.max_fused == other.spec.max_fused
            && self.spec.circuit.num_qubits == other.spec.circuit.num_qubits
    }
}

/// What [`JobQueue::pop`] hands a worker: one or more jobs (more than one
/// only for a Batch-class gang, lead first) plus the running traffic
/// charge the worker returns through [`JobQueue::finish`] when the unit
/// completes.
#[derive(Debug)]
pub struct WorkUnit {
    /// The jobs to run — a single job, or a gang.
    pub jobs: Vec<QueuedJob>,
    /// Rate charged to the ledger for this unit (the lead's demand).
    pub running_bps: u64,
}

/// [`JobQueue::push`] found the queue closed (the service is shutting
/// down); nothing was queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed;

/// The bandwidth-ledger levels, for the `metrics` verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BandwidthSnapshot {
    /// The configured bytes/s budget.
    pub budget_bps: u64,
    /// Aggregate rate charged by running units.
    pub running_bps: u64,
    /// Aggregate rate of admitted jobs still queued.
    pub queued_bps: u64,
    /// Running unit count (a gang is one unit).
    pub running_jobs: u64,
}

#[derive(Debug)]
struct Inner {
    classes: [VecDeque<QueuedJob>; 3],
    closed: bool,
    /// The bandwidth ledger: what running units may charge in aggregate,
    /// what they do charge, how many there are (the `== 0` escape hatch),
    /// and the queued backlog with its shedding cap.
    bandwidth: BandwidthSnapshot,
    backlog_limit_bps: u64,
}

impl Inner {
    fn len(&self) -> usize {
        self.classes.iter().map(VecDeque::len).sum()
    }

    /// Select the next dispatchable job: the first bandwidth-admissible
    /// job in the highest non-empty class, except that an admissible
    /// affinity match within the class's front window wins over an
    /// earlier non-matching job.
    fn select(&mut self, affinity: Option<BucketKey>) -> Option<QueuedJob> {
        let BandwidthSnapshot { budget_bps, running_bps, running_jobs, .. } = self.bandwidth;
        // Always admissible when nothing is running (so the ledger can
        // never starve the queue) or when the token has fired (the worker
        // only records the cancellation); otherwise only while the
        // aggregate running rate stays in budget.
        let admissible = |job: &QueuedJob| {
            running_jobs == 0
                || job.cancel.cause().is_some()
                || running_bps.saturating_add(job.demand_bps) <= budget_bps
        };
        // Only the top non-empty class is searched: falling through to a
        // lower class when it is gated would invert priorities.
        let class = self.classes.iter_mut().find(|class| !class.is_empty())?;
        let mut first_admissible = None;
        for (i, job) in class.iter().enumerate() {
            if i >= AFFINITY_WINDOW && first_admissible.is_some() {
                break;
            }
            if !admissible(job) {
                continue;
            }
            if affinity == Some(job.bucket()) {
                return class.remove(i);
            }
            if first_admissible.is_none() {
                first_admissible = Some(i);
                if affinity.is_none() {
                    break;
                }
            }
        }
        class.remove(first_admissible?)
    }

    /// Drain up to `extra` gang-compatible Batch-class jobs for `lead`.
    fn drain_gang(&mut self, lead: &QueuedJob, extra: usize) -> Vec<QueuedJob> {
        let class = &mut self.classes[Priority::Batch.index()];
        let mut gang = Vec::new();
        let mut i = 0;
        while i < class.len() && gang.len() < extra {
            if lead.gang_compatible(&class[i]) {
                if let Some(job) = class.remove(i) {
                    gang.push(job);
                    continue;
                }
            }
            i += 1;
        }
        gang
    }
}

/// A multi-class FIFO job queue shared between the submitting front-end
/// and the worker pool, and the bandwidth ledger dispatch is gated on.
#[derive(Debug)]
pub struct JobQueue {
    inner: Mutex<Inner>,
    available: Condvar,
}

impl JobQueue {
    /// An open, empty queue dispatching against `bandwidth_budget_bps` of
    /// modeled traffic.
    pub fn new(bandwidth_budget_bps: u64) -> Self {
        let budget_bps = bandwidth_budget_bps.max(1);
        JobQueue {
            inner: Mutex::new(
                "qsim-serve::queue::JobQueue.inner",
                Inner {
                    classes: Default::default(),
                    closed: false,
                    bandwidth: BandwidthSnapshot { budget_bps, ..BandwidthSnapshot::default() },
                    backlog_limit_bps: budget_bps.saturating_mul(BACKLOG_OVERCOMMIT),
                },
            ),
            available: Condvar::new(),
        }
    }

    /// Enqueue jobs, each in its priority class, under one lock round.
    /// A job whose modeled traffic would push the backlog (queued +
    /// running) past [`BACKLOG_OVERCOMMIT`] × budget is shed instead of
    /// queued and comes back, by id, with its typed
    /// [`AdmissionError::Saturated`]; the others charge the backlog and
    /// queue. `Err(Closed)`: the queue has been closed, nothing queued.
    pub fn push(&self, jobs: Vec<QueuedJob>) -> Result<Vec<(JobId, AdmissionError)>, Closed> {
        let mut inner = self.inner.lock();
        if inner.closed {
            return Err(Closed);
        }
        let mut shed = Vec::new();
        for job in jobs {
            let backlog = inner.bandwidth.queued_bps.saturating_add(inner.bandwidth.running_bps);
            if backlog.saturating_add(job.demand_bps) > inner.backlog_limit_bps {
                let refusal = AdmissionError::Saturated {
                    demand_bytes_per_sec: job.demand_bps,
                    backlog_bytes_per_sec: backlog,
                    limit_bytes_per_sec: inner.backlog_limit_bps,
                    retry_after: DEFAULT_RETRY_AFTER * 4,
                };
                shed.push((job.id, refusal));
                continue;
            }
            inner.bandwidth.queued_bps += job.demand_bps;
            inner.classes[job.spec.priority.index()].push_back(job);
        }
        drop(inner);
        // Every idle worker must see a queue that stopped being empty:
        // one of them may find the new job gated and has to start polling
        // for its deadline while another is already busy.
        self.available.notify_all();
        Ok(shed)
    }

    /// Block until a bandwidth-admissible unit of work is available (or
    /// the queue is closed and drained → `None`) and charge it: the
    /// caller owns the release ([`JobQueue::finish`]).
    ///
    /// `affinity` is the `(precision, length)` bucket the worker last
    /// released a buffer into; `max_batch` caps gang width (`1` disables
    /// coalescing).
    pub fn pop(&self, affinity: Option<BucketKey>, max_batch: usize) -> Option<WorkUnit> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(lead) = inner.select(affinity) {
                let mut jobs = vec![lead];
                if max_batch > 1 && jobs[0].spec.priority == Priority::Batch {
                    let gang = inner.drain_gang(&jobs[0], max_batch - 1);
                    jobs.extend(gang);
                }
                // The gang sweeps every member state through one pass of
                // the gate plan, so it charges the lead's rate once; all
                // members' backlog shares are released.
                let queued: u64 = jobs.iter().map(|j| j.demand_bps).sum();
                let running_bps = jobs[0].demand_bps;
                let ledger = &mut inner.bandwidth;
                ledger.queued_bps = ledger.queued_bps.saturating_sub(queued);
                ledger.running_bps = ledger.running_bps.saturating_add(running_bps);
                ledger.running_jobs += 1;
                return Some(WorkUnit { jobs, running_bps });
            }
            if inner.closed && inner.len() == 0 {
                return None;
            }
            inner = if inner.len() == 0 {
                inner.wait(&self.available)
            } else {
                // Everything dispatchable is behind the gate. A release
                // notifies; a queued job's token firing does not.
                inner.wait_timeout(&self.available, GATED_POLL)
            };
        }
    }

    /// Return a finished (or failed, cancelled, timed-out) unit's running
    /// charge and, if anything is queued, wake the workers — a deferred
    /// job may now fit. (Workers asleep on an empty queue have nothing to
    /// gain from a release.)
    pub fn finish(&self, unit: &WorkUnit) {
        let deferred = {
            let mut inner = self.inner.lock();
            let ledger = &mut inner.bandwidth;
            ledger.running_bps = ledger.running_bps.saturating_sub(unit.running_bps);
            ledger.running_jobs = ledger.running_jobs.saturating_sub(1);
            inner.len() > 0
        };
        if deferred {
            self.available.notify_all();
        }
    }

    /// Close the queue: no further [`JobQueue::push`] succeeds, every
    /// blocked worker wakes, and already-queued jobs keep draining.
    pub fn close(&self) {
        self.inner.lock().closed = true;
        self.available.notify_all();
    }

    /// Jobs currently queued across all classes.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bandwidth-ledger snapshot for the `metrics` verb.
    pub fn bandwidth_snapshot(&self) -> BandwidthSnapshot {
        self.inner.lock().bandwidth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_circuit::library;
    use std::sync::Arc;

    fn queued(id: u64, spec: JobSpec) -> QueuedJob {
        let plan = Arc::new(QueuedJob::plan_spec(&spec));
        let fused_hash = plan.fused.content_hash();
        QueuedJob::new(JobId(id), spec, CancelToken::new(), plan, fused_hash)
    }

    fn job(id: u64, priority: Priority) -> QueuedJob {
        let mut spec = JobSpec::new(library::bell());
        spec.priority = priority;
        queued(id, spec)
    }

    /// A Normal-class job claiming `demand_bps` of modeled traffic.
    fn demanding(id: u64, demand_bps: u64) -> QueuedJob {
        QueuedJob { demand_bps, ..job(id, Priority::Normal) }
    }

    fn batch_job(id: u64, qubits: usize) -> QueuedJob {
        let mut spec = JobSpec::new(library::ghz(qubits));
        spec.priority = Priority::Batch;
        spec.seed = id; // seeds differ; gang compatibility must survive
        queued(id, spec)
    }

    fn wide_open() -> JobQueue {
        JobQueue::new(u64::MAX / 2)
    }

    fn push_all(q: &JobQueue, jobs: Vec<QueuedJob>) {
        assert_eq!(q.push(jobs), Ok(Vec::new()), "nothing closed, nothing shed");
    }

    fn ids(unit: &WorkUnit) -> Vec<u64> {
        unit.jobs.iter().map(|j| j.id.0).collect()
    }

    /// Pop one unit without coalescing and hand its charge straight back.
    fn pop_one(q: &JobQueue) -> Option<u64> {
        let unit = q.pop(None, 1)?;
        q.finish(&unit);
        Some(unit.jobs[0].id.0)
    }

    fn levels(q: &JobQueue) -> (u64, u64, u64) {
        let snap = q.bandwidth_snapshot();
        (snap.queued_bps, snap.running_bps, snap.running_jobs)
    }

    #[test]
    fn priority_beats_fifo_and_fifo_holds_within_class() {
        let q = wide_open();
        push_all(&q, vec![job(1, Priority::Batch), job(2, Priority::Normal)]);
        push_all(&q, vec![job(3, Priority::High), job(4, Priority::Normal)]);
        let order: Vec<u64> = (0..4).map(|_| pop_one(&q).unwrap()).collect();
        assert_eq!(order, [3, 2, 4, 1]);
    }

    #[test]
    fn close_rejects_new_and_drains_old() {
        let q = wide_open();
        push_all(&q, vec![job(1, Priority::Normal)]);
        q.close();
        assert_eq!(q.push(vec![job(2, Priority::Normal)]), Err(Closed), "closed queue rejects");
        assert_eq!(pop_one(&q), Some(1), "closed queue must still drain");
        assert_eq!(pop_one(&q), None, "drained closed queue returns None");
    }

    #[test]
    fn blocked_pop_wakes_on_push_and_on_close() {
        let q = Arc::new(wide_open());

        let qp = q.clone();
        let popper = std::thread::spawn(move || pop_one(&qp));
        std::thread::sleep(Duration::from_millis(20));
        push_all(&q, vec![job(7, Priority::High)]);
        assert_eq!(popper.join().unwrap(), Some(7));

        let qp = q.clone();
        let popper = std::thread::spawn(move || pop_one(&qp));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(popper.join().unwrap(), None);
    }

    /// How often the thread named `name` has gone to sleep so far (the
    /// kernel's count of its voluntary context switches).
    #[cfg(target_os = "linux")]
    fn sleeps_of(name: &str) -> u64 {
        let comm_is = |task: &std::path::PathBuf| {
            std::fs::read_to_string(task.join("comm")).is_ok_and(|comm| comm.trim() == name)
        };
        let mut tasks = std::fs::read_dir("/proc/self/task").unwrap().map(|t| t.unwrap().path());
        let status = std::fs::read_to_string(tasks.find(comm_is).unwrap().join("status")).unwrap();
        let switches = status.lines().find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"));
        switches.unwrap().trim().parse().unwrap()
    }

    /// With the release under the lock no wake-up can be lost, so a
    /// worker facing an empty queue sleeps untimed: once it has gone to
    /// sleep it is not heard from again until there is something to do
    /// (the 5 ms poll it replaced woke ten times in any 50 ms).
    #[cfg(target_os = "linux")]
    #[test]
    fn idle_worker_does_not_poll_an_empty_queue() {
        let q = Arc::new(wide_open());
        let qp = q.clone();
        let popper = std::thread::Builder::new().name("idle-popper".into());
        let popper = popper.spawn(move || pop_one(&qp)).unwrap();
        // A few tries only so that a slow start of the thread is not
        // mistaken for a wake-up; a polling wait fails every one of them.
        let quiet = (0..10).any(|_| {
            std::thread::sleep(Duration::from_millis(10));
            let before = sleeps_of("idle-popper");
            std::thread::sleep(Duration::from_millis(50));
            sleeps_of("idle-popper") == before
        });
        assert!(quiet, "a worker on an empty queue must sleep through 50 ms");
        q.close();
        assert_eq!(popper.join().unwrap(), None);
    }

    #[test]
    fn pop_coalesces_compatible_batch_jobs() {
        let q = wide_open();
        // Three hash-equal 6-qubit GHZ jobs, one incompatible 7-qubit job
        // in between, one Normal-class job that must dispatch first.
        push_all(
            &q,
            vec![
                batch_job(1, 6),
                batch_job(2, 7),
                batch_job(3, 6),
                batch_job(4, 6),
                job(5, Priority::Normal),
            ],
        );

        let unit = q.pop(None, 8).unwrap();
        assert_eq!(ids(&unit), [5], "Normal class dispatches before Batch");
        q.finish(&unit);

        let unit = q.pop(None, 8).unwrap();
        assert_eq!(ids(&unit), [1, 3, 4], "gang takes every compatible job, FIFO order");
        assert!(unit.jobs.windows(2).all(|w| w[0].gang_compatible(&w[1])));
        q.finish(&unit);

        let unit = q.pop(None, 8).unwrap();
        assert_eq!(ids(&unit), [2], "the incompatible job runs alone");
        q.finish(&unit);
        assert_eq!(levels(&q), (0, 0, 0));
    }

    #[test]
    fn gang_width_respects_max_batch() {
        let q = wide_open();
        push_all(&q, (0..5).map(|id| batch_job(id, 6)).collect());
        let unit = q.pop(None, 3).unwrap();
        assert_eq!(unit.jobs.len(), 3);
        q.finish(&unit);
        let unit = q.pop(None, 3).unwrap();
        assert_eq!(unit.jobs.len(), 2, "remainder gangs up too");
        q.finish(&unit);
    }

    #[test]
    fn gang_dispatch_charges_lead_rate_only() {
        let q = JobQueue::new(100);
        push_all(&q, (0..4).map(|id| QueuedJob { demand_bps: 20, ..batch_job(id, 6) }).collect());
        assert_eq!(levels(&q), (80, 0, 0));
        // A 4-member gang releases all four backlog shares but runs the
        // sweep once: it charges one member's rate.
        let unit = q.pop(None, 4).unwrap();
        assert_eq!(unit.jobs.len(), 4);
        assert_eq!(levels(&q), (0, 20, 1));
        q.finish(&unit);
        assert_eq!(levels(&q), (0, 0, 0));
    }

    #[test]
    fn traffic_ledger_caps_concurrency_but_never_starves() {
        let q = JobQueue::new(100);
        // Nothing running: even an over-budget rate may start.
        push_all(&q, vec![demanding(1, 1000)]);
        let over = q.pop(None, 1).unwrap();
        assert_eq!((ids(&over), over.running_bps), (vec![1], 1000));
        q.finish(&over);

        push_all(&q, vec![demanding(2, 70)]);
        let seventy = q.pop(None, 1).unwrap();
        // 70 of 100 charged: a 40 B/s job must wait, but the 30 B/s job
        // behind it still fits exactly and overtakes it.
        push_all(&q, vec![demanding(3, 40), demanding(4, 30)]);
        let thirty = q.pop(None, 1).unwrap();
        assert_eq!(ids(&thirty), [4]);
        assert_eq!(levels(&q), (40, 100, 2));
        q.finish(&seventy);
        let forty = q.pop(None, 1).unwrap();
        assert_eq!(ids(&forty), [3]);
        q.finish(&thirty);
        q.finish(&forty);
        assert_eq!(levels(&q), (0, 0, 0));
    }

    #[test]
    fn saturated_backlog_sheds_with_typed_error() {
        let q = JobQueue::new(10);
        // Backlog limit is 10 × BACKLOG_OVERCOMMIT = 640 B/s.
        let shed = q.push(vec![demanding(1, 600), demanding(2, 100), demanding(3, 40)]).unwrap();
        match shed.as_slice() {
            [(
                JobId(2),
                AdmissionError::Saturated {
                    demand_bytes_per_sec: 100,
                    backlog_bytes_per_sec: 600,
                    limit_bytes_per_sec,
                    retry_after,
                },
            )] => {
                assert_eq!(*limit_bytes_per_sec, 10 * BACKLOG_OVERCOMMIT);
                assert!(*retry_after > Duration::ZERO);
            }
            other => panic!("expected job 2 Saturated, got {other:?}"),
        }
        // Shedding must not leak backlog charge, and a running charge
        // counts toward the backlog like a queued one.
        assert_eq!((q.len(), levels(&q)), (2, (640, 0, 0)));
        let unit = q.pop(None, 1).unwrap();
        assert_eq!(levels(&q), (40, 600, 1));
        assert_eq!(q.push(vec![demanding(4, 1)]).unwrap().len(), 1, "640 of 640 still committed");
        q.finish(&unit);
        assert_eq!(pop_one(&q), Some(3));
        assert_eq!(levels(&q), (0, 0, 0));
    }

    #[test]
    fn bandwidth_gate_defers_but_never_starves() {
        // Budget 100 B/s; jobs below claim far more.
        let q = Arc::new(JobQueue::new(100));
        push_all(&q, vec![demanding(1, 1000)]);
        // Nothing running → the over-budget job dispatches anyway.
        let unit = q.pop(None, 1).unwrap();
        assert_eq!((ids(&unit), unit.running_bps), (vec![1], 1000));

        // While it runs, a second big job is deferred…
        push_all(&q, vec![demanding(2, 1000)]);
        let qp = q.clone();
        let popper = std::thread::spawn(move || pop_one(&qp));
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(q.len(), 1, "job 2 must still be behind the gate");
        // …until the first finishes and releases its charge.
        q.finish(&unit);
        assert_eq!(popper.join().unwrap(), Some(2));

        // A job timing out — or cancelled — while queued behind a closed
        // gate announces nothing; a free worker still resolves it within
        // the gated poll.
        push_all(&q, vec![demanding(3, 1000)]);
        let unit = q.pop(None, 1).unwrap();
        let cancel = CancelToken::with_deadline(Duration::from_millis(20));
        push_all(&q, vec![QueuedJob { cancel, ..demanding(4, 1000) }]);
        assert_eq!(pop_one(&q), Some(4), "resolved once its deadline passed");

        let cancelled = demanding(5, 1000);
        let token = cancelled.cancel.clone();
        push_all(&q, vec![cancelled]);
        let qp = q.clone();
        let popper = std::thread::spawn(move || pop_one(&qp));
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(q.len(), 1, "job 5 must still be behind the gate");
        token.cancel();
        assert_eq!(popper.join().unwrap(), Some(5));
        assert_eq!(levels(&q), (0, 1000, 1), "the gate never opened: job 3 still holds it");
        q.finish(&unit);
    }

    #[test]
    fn affinity_prefers_matching_bucket_within_window() {
        let q = wide_open();
        push_all(&q, vec![batch_job(1, 6), batch_job(2, 9)]);
        let bucket_9 = (Precision::Single, 1usize << 9);
        let unit = q.pop(Some(bucket_9), 1).unwrap();
        assert_eq!(ids(&unit), [2], "affinity match wins within the window");
        q.finish(&unit);
        let unit = q.pop(Some(bucket_9), 1).unwrap();
        assert_eq!(ids(&unit), [1]);
        q.finish(&unit);
    }
}
