//! The service: job registry, admission, lifecycle accounting, metrics.
//!
//! [`Service::start`] wires the queue, buffer pool, admission controller
//! and worker pool together; everything else is bookkeeping around the
//! job registry. The registry is the single source of truth for job
//! state — the queue only carries work, the workers only execute it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use qsim_backends::{Flavor, FusionPlan, RunReport};
use qsim_cache::{BudgetLedger, Cache, CacheStats};
use qsim_circuit::parser::ParseError;
use qsim_core::cancel::{CancelCause, CancelToken};
use qsim_core::kernels::MAX_GATE_QUBITS;
use qsim_core::lockorder::Mutex;
use qsim_core::AlignedAmps;
use qsim_distributed::{MultiGcdBackend, SwapPolicy, SwapSchedule, EXCHANGE_KERNEL};
use serde_json::json;

use crate::admission::{AdmissionController, AdmissionError, Reservation};
use crate::circuits::{self, CircuitTable, SharedCircuit};
use crate::job::{JobId, JobSpec, JobState, Priority};
use crate::mux::{IoCounters, IoStats, Waker};
use crate::pool::{BucketStats, PoolStats, StateBufferPool};
use crate::queue::{BandwidthSnapshot, JobQueue, QueuedJob};
use crate::registry::{JobRecord, Registry};
use crate::worker::WorkerPool;

/// Service construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Global state-memory budget enforced by admission control, bytes.
    pub memory_budget_bytes: u64,
    /// Cap on parked buffers per `(precision, length)` pool bucket.
    pub pool_max_per_bucket: usize,
    /// Modeled memory-traffic budget the bandwidth ledger dispatches
    /// against, bytes/s. Jobs whose aggregate estimated rate would exceed
    /// it wait in the queue instead of thrashing one memory system.
    pub bandwidth_budget_bps: u64,
    /// Maximum gang width for coalesced Batch-class jobs (`1` disables
    /// batching).
    pub max_batch: usize,
    /// Byte budget of the fusion-plan cache, and on an account of its own
    /// of the circuit table, so neither can hold the other out (plans and
    /// parsed circuits are metadata, not state memory). `0` disables both.
    pub plan_cache_budget_bytes: u64,
    /// Byte budget of the result cache. Every resident byte is charged
    /// through the admission ledger, so cached reports and live state
    /// buffers compete for the same `memory_budget_bytes`; under
    /// pressure the cache sheds entries back to admission. `0` disables
    /// result caching.
    pub result_cache_budget_bytes: u64,
}

/// Default gang width for Batch-class coalescing.
pub const DEFAULT_MAX_BATCH: usize = 16;

/// Default fusion-plan cache budget: plans are a few KiB each, so this
/// holds thousands of distinct circuit shapes.
pub const DEFAULT_PLAN_CACHE_BUDGET: u64 = 32 << 20;

/// Default result cache budget — an eighth of the default memory
/// budget. The admission-ledger charge (not this cap) is what actually
/// bounds residency on smaller deployments.
pub const DEFAULT_RESULT_CACHE_BUDGET: u64 = 2 << 30;

/// Cap on modeled devices a `TooLarge` job may be sharded across — the
/// largest multi-GCD node the interconnect model describes. A state that
/// would still not fit per-device at this count is genuinely too large.
pub const MAX_SHARD_DEVICES: usize = 64;

/// Devices needed to shard `requested_bytes` down to per-device slices
/// within `budget_bytes`, or `None` when the job cannot shard: a zero
/// budget, more devices than [`MAX_SHARD_DEVICES`], or a circuit too
/// narrow to donate that many global qubits.
fn shard_devices(requested_bytes: u64, budget_bytes: u64, num_qubits: usize) -> Option<usize> {
    if budget_bytes == 0 || requested_bytes == 0 {
        return None;
    }
    let devices = usize::try_from(requested_bytes.div_ceil(budget_bytes)).ok()?;
    let devices = devices.checked_next_power_of_two()?;
    let d = devices.trailing_zeros() as usize;
    (devices > 1 && devices <= MAX_SHARD_DEVICES && d < num_qubits).then_some(devices)
}

impl Default for ServiceConfig {
    /// 4 workers against a 16 GiB budget — enough for two 30-qubit
    /// single-precision tenants side by side.
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            memory_budget_bytes: 16 << 30,
            pool_max_per_bucket: crate::pool::DEFAULT_MAX_PER_BUCKET,
            bandwidth_budget_bps: crate::queue::DEFAULT_BANDWIDTH_BUDGET_BPS,
            max_batch: DEFAULT_MAX_BATCH,
            plan_cache_budget_bytes: DEFAULT_PLAN_CACHE_BUDGET,
            result_cache_budget_bytes: DEFAULT_RESULT_CACHE_BUDGET,
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// Admission control said no (see [`AdmissionError`] for whether a
    /// retry can help).
    Rejected(AdmissionError),
    /// The service is draining for shutdown; no new work is accepted.
    ShuttingDown,
    /// The spec is malformed (bad qubit count, bad fusion width, …).
    Invalid(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Rejected(e) => write!(f, "{e}"),
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
            SubmitError::Invalid(m) => write!(f, "invalid job: {m}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A point-in-time view of one job, as the `status` verb reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// The job.
    pub id: JobId,
    /// Current lifecycle state.
    pub state: JobState,
    /// Scheduling class it was submitted under.
    pub priority: Priority,
    /// Backend flavor it runs on.
    pub flavor: Flavor,
    /// Circuit width.
    pub num_qubits: usize,
    /// Modeled devices the job runs across (`> 1` when admission routed
    /// it to the sharded multi-GCD backend).
    pub devices: usize,
    /// Error text for `Failed` jobs.
    pub error: Option<String>,
}

/// A retained final state vector, kept only when the job was submitted
/// with [`JobSpec::keep_state`] and fetched once via
/// [`Service::take_state`].
#[derive(Debug, Clone, PartialEq)]
pub enum FinalState {
    /// Single-precision amplitudes.
    F32(AlignedAmps<f32>),
    /// Double-precision amplitudes.
    F64(AlignedAmps<f64>),
}

/// What a worker concluded about one job.
#[derive(Debug)]
pub(crate) enum JobOutcome {
    /// Completed; report attached (shared with the result cache from here
    /// on), plus the final state when the spec asked for it to be kept.
    Done(Arc<RunReport>, Option<FinalState>),
    /// The cancel token fired (explicitly or by deadline).
    Cancelled(CancelCause),
    /// The backend errored.
    Failed(String),
}

/// Why [`Service::result`] has no report to give.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResultError {
    /// No job with this id was ever accepted.
    UnknownJob,
    /// The job is in flight, or ended without a report (failed,
    /// cancelled, timed out); its current state.
    NoResult(JobState),
    /// The job's record aged out of the registry: `status` still answers
    /// its terminal state, the report is gone.
    Expired(JobState),
}

/// Running totals the `metrics` verb aggregates over finished jobs.
#[derive(Debug, Default, Clone, Copy)]
struct Aggregates {
    completed: u64,
    failed: u64,
    cancelled: u64,
    timed_out: u64,
    total_wall_seconds: f64,
    total_setup_seconds: f64,
    cold_setup_seconds: f64,
    cold_runs: u64,
    warm_setup_seconds: f64,
    warm_runs: u64,
    max_peak_state_bytes: u64,
    /// Gang dispatches of width ≥ 2.
    batches: u64,
    /// Jobs that executed inside those gangs.
    batched_jobs: u64,
    /// Sharded (multi-device) jobs that finished successfully.
    sharded_completed: u64,
    /// Modeled fabric-exchange seconds those jobs' runs charged.
    sharded_exchange_seconds: f64,
}

/// Snapshot of the service's counters, the payload of the `metrics` verb.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// Worker threads.
    pub workers: usize,
    /// Whether submissions are currently accepted.
    pub accepting: bool,
    /// Jobs waiting in the queue.
    pub queue_depth: usize,
    /// Jobs accepted since start.
    pub submitted: u64,
    /// Submissions refused by admission control since start.
    pub rejected: u64,
    /// Jobs currently executing.
    pub running: u64,
    /// Jobs that finished successfully.
    pub completed: u64,
    /// Jobs that failed.
    pub failed: u64,
    /// Jobs cancelled by request.
    pub cancelled: u64,
    /// Jobs cancelled by deadline.
    pub timed_out: u64,
    /// Buffer-pool counters.
    pub pool: PoolStats,
    /// Per-`(precision, length)` buffer-pool bucket counters.
    pub pool_buckets: Vec<BucketStats>,
    /// Admission budget, bytes.
    pub budget_bytes: u64,
    /// Bytes reserved by admitted unfinished jobs.
    pub reserved_bytes: u64,
    /// Bandwidth-ledger levels (budget, running charge, queued backlog).
    pub bandwidth: BandwidthSnapshot,
    /// Gang dispatches of width ≥ 2 since start.
    pub batches: u64,
    /// Jobs that executed inside those gangs.
    pub batched_jobs: u64,
    /// `TooLarge` submissions admission routed to the sharded backend.
    pub routed_sharded: u64,
    /// Sharded jobs that finished successfully.
    pub sharded_completed: u64,
    /// Planned fabric-exchange bytes (across all devices) of routed jobs.
    pub sharded_exchanged_bytes: u64,
    /// Modeled fabric-exchange seconds completed sharded runs charged.
    pub sharded_exchange_seconds: f64,
    /// Sum of finished jobs' wall-clock seconds.
    pub total_wall_seconds: f64,
    /// Sum of finished jobs' setup seconds (buffer acquisition + init).
    pub total_setup_seconds: f64,
    /// Mean setup seconds over runs that allocated fresh buffers.
    pub cold_setup_seconds_avg: f64,
    /// Mean setup seconds over runs that adopted a pooled buffer.
    pub warm_setup_seconds_avg: f64,
    /// Finished runs that adopted a pooled buffer.
    pub buffer_reuses: u64,
    /// Largest per-job peak device memory seen, bytes.
    pub max_peak_state_bytes: u64,
    /// Circuit-table counters (submitted texts parsed once).
    pub circuit_cache: CacheStats,
    /// Fusion-plan cache counters.
    pub plan_cache: CacheStats,
    /// Result cache counters.
    pub result_cache: CacheStats,
    /// The mux front end's health counters (zero without one).
    pub io: IoStats,
    /// Job records the registry holds: live jobs plus the retained
    /// terminal ones.
    pub registry_records: usize,
    /// Terminal records compacted to a verdict since start.
    pub registry_aged_out: u64,
}

impl Metrics {
    /// Mean gang width over gang dispatches (0 when none happened).
    pub fn batch_occupancy_avg(&self) -> f64 {
        mean(self.batched_jobs as f64, self.batches)
    }

    /// The metrics as the JSON object the wire protocol returns.
    pub fn to_json(&self) -> serde_json::Value {
        let buckets: Vec<serde_json::Value> = self
            .pool_buckets
            .iter()
            .map(|b| {
                json!({
                    "precision": (b.precision.name()),
                    "len": (b.len),
                    "pooled": (b.pooled),
                    "pooled_bytes": (b.pooled_bytes),
                    "hits": (b.hits),
                    "misses": (b.misses),
                    "evicted": (b.evicted),
                })
            })
            .collect();
        json!({
            "workers": (self.workers),
            "accepting": (self.accepting),
            "queue_depth": (self.queue_depth),
            "jobs": {
                "submitted": (self.submitted),
                "rejected": (self.rejected),
                "running": (self.running),
                "completed": (self.completed),
                "failed": (self.failed),
                "cancelled": (self.cancelled),
                "timed_out": (self.timed_out),
            },
            "buffer_pool": {
                "hits": (self.pool.hits),
                "misses": (self.pool.misses),
                "hit_rate": (self.pool.hit_rate()),
                "pooled_buffers": (self.pool.pooled_buffers),
                "pooled_bytes": (self.pool.pooled_bytes),
                "evicted": (self.pool.evicted),
                "buckets": (serde_json::Value::Array(buckets)),
            },
            "admission": {
                "budget_bytes": (self.budget_bytes),
                "reserved_bytes": (self.reserved_bytes),
                "bandwidth_budget_bps": (self.bandwidth.budget_bps),
                "bandwidth_running_bps": (self.bandwidth.running_bps),
                "bandwidth_queued_bps": (self.bandwidth.queued_bps),
                "bandwidth_running_jobs": (self.bandwidth.running_jobs),
            },
            "batching": {
                "batches": (self.batches),
                "batched_jobs": (self.batched_jobs),
                "batch_occupancy_avg": (self.batch_occupancy_avg()),
            },
            "sharded": {
                "routed": (self.routed_sharded),
                "completed": (self.sharded_completed),
                "exchanged_bytes": (self.sharded_exchanged_bytes),
                "exchange_seconds": (self.sharded_exchange_seconds),
            },
            "circuit_cache": (cache_json(&self.circuit_cache)),
            "plan_cache": (cache_json(&self.plan_cache)),
            "result_cache": (cache_json(&self.result_cache)),
            "timing": {
                "total_wall_seconds": (self.total_wall_seconds),
                "total_setup_seconds": (self.total_setup_seconds),
                "cold_setup_seconds_avg": (self.cold_setup_seconds_avg),
                "warm_setup_seconds_avg": (self.warm_setup_seconds_avg),
                "buffer_reuses": (self.buffer_reuses),
                "max_peak_state_bytes": (self.max_peak_state_bytes),
            },
            "io": {
                "polls": (self.io.polls),
                "wakes": (self.io.wakes),
                "watermark_stalls": (self.io.watermark_stalls),
                "line_cap_drops": (self.io.line_cap_drops),
            },
            "registry": {
                "records": (self.registry_records),
                "aged_out": (self.registry_aged_out),
            },
        })
    }
}

/// One cache's counters as the JSON object the `metrics` verb nests
/// under `circuit_cache` / `plan_cache` / `result_cache`.
fn cache_json(s: &CacheStats) -> serde_json::Value {
    json!({
        "hits": (s.hits),
        "misses": (s.misses),
        "hit_rate": (s.hit_rate()),
        "insertions": (s.insertions),
        "evictions": (s.evictions),
        "shed_inserts": (s.shed_inserts),
        "shed_bytes": (s.shed_bytes),
        "entries": (s.entries),
        "occupancy_bytes": (s.occupancy_bytes),
        "budget_bytes": (s.budget_bytes),
    })
}

/// Shared state behind the service handle; workers hold an `Arc` of it.
#[derive(Debug)]
pub(crate) struct ServiceInner {
    pub(crate) queue: JobQueue,
    pub(crate) pool: StateBufferPool,
    pub(crate) admission: AdmissionController,
    /// Gang-width cap workers pass to `pop`.
    pub(crate) max_batch: usize,
    /// Each distinct submitted text, parsed and validated once; charged
    /// to the plan-cache budget.
    circuits: CircuitTable,
    /// Checked fusion plans keyed by circuit content and plan settings;
    /// shared across hash-equal submissions so each unique circuit is
    /// planned, analysed and prepared once, not once per job. Each entry
    /// is charged its [`FusionPlan::resident_bytes`]: the fused matrices
    /// and the prepared gates the workers' walks apply. Byte-budgeted with
    /// per-entry CLOCK eviction: a hot circuit's plan survives a parade
    /// of cold one-shot circuits (the old fixed-cap map wholesale-reset
    /// at capacity, dropping every hot plan with the cold ones).
    plans: Cache<PlanKey, (Arc<FusionPlan>, u64)>,
    /// Completed run reports keyed by everything that determines the
    /// output (circuit content, flavor, precision, plan settings, seed,
    /// shot count). Simulation is deterministic, so a key-equal
    /// resubmission returns the cached report without touching a worker.
    /// Every resident byte is charged through the admission ledger via
    /// [`AdmissionLedger`]; under admission pressure the cache sheds.
    results: Cache<ResultKey, Arc<RunReport>>,
    /// Every accepted job: a record while live or recently finished, a
    /// verdict once aged out (see [`crate::registry`]).
    registry: Mutex<Registry>,
    aggregates: Mutex<Aggregates>,
    next_id: AtomicU64,
    accepting: AtomicBool,
    submitted: AtomicU64,
    rejected: AtomicU64,
    running: AtomicU64,
    /// `TooLarge` submissions routed to the sharded backend.
    routed_sharded: AtomicU64,
    /// Planned fabric-exchange bytes (all devices) of routed jobs.
    sharded_exchanged_bytes: AtomicU64,
    /// The mux's I/O-thread wakers, registered once when it starts
    /// serving; the finish sequence pokes each of them.
    wakers: OnceLock<Box<[Waker]>>,
    /// The mux's health counters.
    io: IoCounters,
}

/// What must match for two submissions to share one fusion plan:
/// circuit content, backend flavor, precision, strategy, fusion width.
type PlanKey = (u64, Flavor, qsim_core::types::Precision, qsim_fusion::FusionStrategy, usize);

/// What must match for two submissions to share one run *result*: the
/// plan key axes plus the PRNG seed and the sample count — everything
/// the deterministic simulator's output is a pure function of.
pub(crate) type ResultKey =
    (u64, Flavor, qsim_core::types::Precision, qsim_fusion::FusionStrategy, usize, u64, usize);

/// The result-cache key for `spec`, whose circuit hashes to
/// `circuit_hash`, or `None` when the result must not be cached:
/// `keep_state` jobs exist for their state vector, which is taken once and
/// never cached.
fn result_cache_key(spec: &JobSpec, circuit_hash: u64) -> Option<ResultKey> {
    if spec.keep_state {
        return None;
    }
    Some((
        circuit_hash,
        spec.flavor,
        spec.precision,
        spec.strategy,
        spec.max_fused,
        spec.seed,
        spec.sample_count,
    ))
}

/// Modeled resident weight of one result-cache entry: fixed report
/// overhead plus the variable-length vectors a sampling or
/// measurement-heavy run carries.
fn report_bytes(report: &RunReport) -> u64 {
    1024 + report.samples.len() as u64 * 8
        + report.kernels.len() as u64 * 64
        + report.measurements.iter().map(|(q, _)| 64 + q.len() as u64 * 8).sum::<u64>()
        + report.analysis_warnings.iter().map(|w| 32 + w.len() as u64).sum::<u64>()
}

/// Adapter charging the result cache's occupancy to the admission
/// controller's reservation ledger, so cached reports and live state
/// buffers compete for the same modeled memory budget.
#[derive(Debug)]
struct AdmissionLedger(AdmissionController);

impl BudgetLedger for AdmissionLedger {
    fn try_charge(&self, bytes: u64) -> bool {
        self.0.try_charge(bytes)
    }

    fn release(&self, bytes: u64) {
        self.0.release(bytes);
    }
}

impl ServiceInner {
    /// Fetch (or build and cache) the fusion plan for `spec`, whose
    /// circuit hashes to `circuit_hash`, plus the fused circuit's content
    /// hash (cached with the plan so hash-equal resubmissions hash the
    /// fused op list once, not once per job).
    fn cached_plan(&self, spec: &JobSpec, circuit_hash: u64) -> (Arc<FusionPlan>, u64) {
        let key: PlanKey =
            (circuit_hash, spec.flavor, spec.precision, spec.strategy, spec.max_fused);
        if let Some(entry) = self.plans.get(&key) {
            return entry;
        }
        // Plan outside the cache lock — the planner is pure and a racing
        // duplicate insert is harmless (both plans are identical; last
        // writer wins, the loser's `Arc` lives on in its own job).
        let plan = Arc::new(QueuedJob::plan_spec(spec));
        let fused_hash = plan.fused.content_hash();
        let bytes = plan.resident_bytes();
        let entry = (plan, fused_hash);
        self.plans.insert(key, entry.clone(), bytes);
        entry
    }

    /// Transition a gang of jobs to `Running` under one registry lock
    /// acquisition, so an N-wide gang costs a worker one contention
    /// round, not N. Jobs already terminal (cancelled while queued) are
    /// left untouched. Returns, per id, whether it moved to `Running`
    /// and may run.
    pub(crate) fn mark_running_many(&self, ids: &[JobId]) -> Vec<bool> {
        let mut registry = self.registry.lock();
        let mut started = 0u64;
        let verdicts = ids
            .iter()
            .map(|&id| match registry.record(id) {
                Some(record) if record.state == JobState::Queued => {
                    record.state = JobState::Running;
                    started += 1;
                    true
                }
                _ => false,
            })
            .collect();
        self.running.fetch_add(started, Ordering::Relaxed);
        verdicts
    }

    /// Record the workers' verdicts: set each terminal state, stash the
    /// report or error, release the admission reservations, fold the
    /// runs' timings into the aggregates, retire each record to the
    /// registry's finish queue — one registry + one aggregates
    /// lock acquisition for the whole set, after [`Self::cache_results`]
    /// had its round.
    pub(crate) fn finish_many(&self, outcomes: Vec<(JobId, JobOutcome)>) {
        if outcomes.is_empty() {
            return;
        }
        self.cache_results(&outcomes);
        let now = Instant::now();
        {
            let mut registry = self.registry.lock();
            let mut agg = self.aggregates.lock();
            for (id, outcome) in outcomes {
                let Some(record) = registry.record(id) else { continue };
                if record.state == JobState::Running {
                    self.running.fetch_sub(1, Ordering::Relaxed);
                }
                Self::resolve(record, &mut agg, outcome);
                registry.retire(id, now);
            }
        }
        // Every terminal transition of a worker-run job passes here, and a
        // mux connection may be streaming any of them: wake each I/O
        // thread once, outside the locks.
        for waker in self.wakers.get().into_iter().flatten() {
            waker.wake();
        }
    }

    /// Put the cacheable reports in the result cache BEFORE their jobs
    /// turn `Done`: a client that has observed a job `Done` may rely on an
    /// identical resubmission hitting. One registry round collects the
    /// keys and returns the jobs' reservations (first, so the entry's
    /// ledger charge is not refused for bytes its own job still holds);
    /// the inserts run outside `registry`/`aggregates` — an insert may
    /// evict and charge the admission ledger, none of which should
    /// lengthen the critical section every status poll contends on.
    /// Failures, cancellations, `keep_state` jobs and a cache-less
    /// service skip the round; a sharded job takes it and finds no key.
    fn cache_results(&self, outcomes: &[(JobId, JobOutcome)]) {
        let mut done = outcomes
            .iter()
            .filter_map(|(id, outcome)| match outcome {
                JobOutcome::Done(report, None) => Some((id, report)),
                _ => None,
            })
            .peekable();
        if self.results.budget_bytes() == 0 || done.peek().is_none() {
            return;
        }
        let cacheable: Vec<(ResultKey, Arc<RunReport>)> = {
            let mut registry = self.registry.lock();
            done.filter_map(|(id, report)| {
                let record = registry.record(*id)?;
                let key = record.result_key.take()?;
                record.reservation = None;
                Some((key, Arc::clone(report)))
            })
            .collect()
        };
        for (key, report) in cacheable {
            let bytes = report_bytes(&report);
            self.results.insert(key, report, bytes);
        }
    }

    /// Apply one job's outcome to its registry record and the aggregate
    /// counters (both locks held by the caller).
    fn resolve(record: &mut JobRecord, agg: &mut Aggregates, outcome: JobOutcome) {
        match outcome {
            JobOutcome::Done(report, state_vector) => {
                record.state = JobState::Done;
                agg.completed += 1;
                if record.devices > 1 {
                    agg.sharded_completed += 1;
                    agg.sharded_exchange_seconds += report.time_us_matching(EXCHANGE_KERNEL) * 1e-6;
                }
                agg.total_wall_seconds += report.wall_seconds;
                agg.total_setup_seconds += report.setup_seconds;
                if report.buffer_reused {
                    agg.warm_runs += 1;
                    agg.warm_setup_seconds += report.setup_seconds;
                } else {
                    agg.cold_runs += 1;
                    agg.cold_setup_seconds += report.setup_seconds;
                }
                agg.max_peak_state_bytes = agg.max_peak_state_bytes.max(report.peak_state_bytes);
                record.report = Some(report);
                record.state_vector = state_vector;
            }
            JobOutcome::Cancelled(CancelCause::Requested) => {
                record.state = JobState::Cancelled;
                agg.cancelled += 1;
            }
            JobOutcome::Cancelled(CancelCause::DeadlineExceeded) => {
                record.state = JobState::TimedOut;
                agg.timed_out += 1;
            }
            JobOutcome::Failed(message) => {
                record.state = JobState::Failed;
                record.error = Some(message);
                agg.failed += 1;
            }
        }
        // A kept state stays charged until it is taken or ages out.
        if record.state_vector.is_none() {
            record.reservation = None;
        }
    }

    /// Fold one gang dispatch of `width` jobs into the batching counters.
    pub(crate) fn record_batch(&self, width: usize) {
        let mut agg = self.aggregates.lock();
        agg.batches += 1;
        agg.batched_jobs += width as u64;
    }
}

/// How admission routed one submission that has to run: its budget hold,
/// the modeled devices it runs across, and its plan.
struct Route {
    reservation: Reservation,
    devices: usize,
    plan: Arc<FusionPlan>,
    fused_hash: u64,
    /// Planned fabric-exchange bytes across all devices (0 on one).
    exchanged_bytes: u64,
}

/// What [`Service::prepare_submission`] concluded about one spec: the
/// record it enters the registry with and, unless the result cache made
/// that record `Done` already, the job to queue.
struct Admitted {
    id: JobId,
    record: JobRecord,
    job: Option<QueuedJob>,
    exchanged_bytes: u64,
}

/// The job service: owns the worker pool and exposes the verb surface
/// the wire protocol (and in-process embedders) call.
#[derive(Debug)]
pub struct Service {
    inner: Arc<ServiceInner>,
    workers: Mutex<Option<WorkerPool>>,
    config: ServiceConfig,
}

impl Service {
    /// Start the service: spawn the worker pool and begin accepting jobs.
    pub fn start(config: ServiceConfig) -> Service {
        let admission = AdmissionController::new(config.memory_budget_bytes);
        // The result cache charges the same reservation ledger jobs
        // reserve state memory from: a cached report occupies modeled
        // budget like a live state does, and sheds under pressure.
        let results = Cache::with_ledger(
            config.result_cache_budget_bytes,
            Arc::new(AdmissionLedger(admission.clone())) as Arc<dyn BudgetLedger>,
        );
        let inner = Arc::new(ServiceInner {
            queue: JobQueue::new(config.bandwidth_budget_bps),
            pool: StateBufferPool::with_max_per_bucket(config.pool_max_per_bucket),
            admission,
            max_batch: config.max_batch.max(1),
            circuits: Cache::new(config.plan_cache_budget_bytes),
            plans: Cache::new(config.plan_cache_budget_bytes),
            results,
            registry: Mutex::new("qsim-serve::service::ServiceInner.registry", Registry::default()),
            aggregates: Mutex::new(
                "qsim-serve::service::ServiceInner.aggregates",
                Aggregates::default(),
            ),
            next_id: AtomicU64::new(1),
            accepting: AtomicBool::new(true),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            running: AtomicU64::new(0),
            routed_sharded: AtomicU64::new(0),
            sharded_exchanged_bytes: AtomicU64::new(0),
            wakers: OnceLock::new(),
            io: IoCounters::default(),
        });
        let workers = WorkerPool::spawn(config.workers.max(1), inner.clone());
        Service {
            inner,
            workers: Mutex::new("qsim-serve::service::Service.workers", Some(workers)),
            config,
        }
    }

    /// Validate, admit, plan and price one submission — everything that
    /// happens before the job touches the registry or the queue. A
    /// result-cache hit skips admission and planning: its record is born
    /// `Done`, so the caller gets a real id whose `status` and `report`
    /// behave exactly like a run that went through a worker.
    fn prepare_submission(&self, spec: JobSpec) -> Result<Admitted, SubmitError> {
        if !self.inner.accepting.load(Ordering::Acquire) {
            return Err(SubmitError::ShuttingDown);
        }
        let n = spec.circuit.num_qubits;
        if n == 0 || n > qsim_core::statevec::MAX_QUBITS {
            return Err(SubmitError::Invalid(format!("unsupported qubit count {n}")));
        }
        if !(1..=MAX_GATE_QUBITS).contains(&spec.max_fused) {
            return Err(SubmitError::Invalid(format!(
                "max_fused must be in 1..={MAX_GATE_QUBITS}, got {}",
                spec.max_fused
            )));
        }
        // Result-cache fast path: simulation is deterministic, so a job
        // whose exact (circuit, flavor, precision, plan settings, seed,
        // shots) already completed returns the cached report without
        // touching admission, the queue, or a worker. A zero budget
        // turns the whole path off — no lookups, no report clones at
        // completion. The circuit is hashed at most once, for both cache
        // keys and every later spec that shares it.
        let circuit_hash = spec.circuit.content_hash();
        let result_key = if self.inner.results.budget_bytes() == 0 {
            None
        } else {
            result_cache_key(&spec, circuit_hash)
        };
        let report = result_key.as_ref().and_then(|key| self.inner.results.get(key));
        let route = if report.is_some() { None } else { Some(self.admit(&spec, circuit_hash)?) };

        let id = JobId(self.inner.next_id.fetch_add(1, Ordering::Relaxed));
        let cancel = match spec.timeout {
            Some(timeout) => CancelToken::with_deadline(timeout),
            None => CancelToken::new(),
        };
        let record = JobRecord {
            state: if report.is_some() { JobState::Done } else { JobState::Queued },
            priority: spec.priority,
            flavor: spec.flavor,
            num_qubits: n,
            devices: 1,
            cancel: cancel.clone(),
            report,
            state_vector: None,
            error: None,
            reservation: None,
            result_key: None,
            delivered: false,
        };
        let mut admitted = Admitted { id, record, job: None, exchanged_bytes: 0 };
        if let Some(route) = route {
            admitted.record.devices = route.devices;
            admitted.record.reservation = Some(route.reservation);
            // Sharded reports are device-count specific (their device
            // string and exchange accounting differ), so only
            // single-device jobs feed the result cache.
            admitted.record.result_key = result_key.filter(|_| route.devices == 1);
            admitted.exchanged_bytes = route.exchanged_bytes;
            let mut job = QueuedJob::new(id, spec, cancel, route.plan, route.fused_hash);
            job.devices = route.devices;
            admitted.job = Some(job);
        }
        Ok(admitted)
    }

    /// Reserve state memory for `spec` and plan it. A state over the
    /// whole budget is not refused outright: it is routed to the sharded
    /// multi-GCD backend over enough modeled devices that each
    /// per-device shard fits, and the host-side reservation drops to one
    /// shard's bytes. Transient pressure (`Rejected`) still bounces —
    /// sharding cures size, not load. `circuit_hash` keys the plan cache.
    fn admit(&self, spec: &JobSpec, circuit_hash: u64) -> Result<Route, SubmitError> {
        let n = spec.circuit.num_qubits;
        let (devices, reservation) = match self.reserve_shedding(spec.state_bytes()) {
            Ok(reservation) => (1usize, reservation),
            Err(too_large @ AdmissionError::TooLarge { requested_bytes, budget_bytes }) => {
                let devices = shard_devices(requested_bytes, budget_bytes, n)
                    .ok_or(SubmitError::Rejected(too_large))?;
                let shard_bytes = requested_bytes / devices as u64;
                (devices, self.reserve_shedding(shard_bytes).map_err(SubmitError::Rejected)?)
            }
            Err(e) => return Err(SubmitError::Rejected(e)),
        };
        // Plan once per unique circuit: the worker runs the plan as-is,
        // the gang path groups jobs by the plan's content hash, and the
        // plan's traffic estimate is what the bandwidth ledger charges.
        // Hash-equal resubmissions (the Batch-class workload) hit the
        // plan cache instead of re-running the fusion planner.
        if devices == 1 {
            let (plan, fused_hash) = self.inner.cached_plan(spec, circuit_hash);
            return Ok(Route { reservation, devices, plan, fused_hash, exchanged_bytes: 0 });
        }
        // Sharded plans bypass the cache: the distributed cost model
        // prices per device count, which the cache key does not carry,
        // and routed jobs are rare enough to plan individually. The
        // plan's traffic estimate includes the fabric-exchange bytes, so
        // the bandwidth ledger charges the job for the links it
        // occupies, not just its DRAM streams.
        let backend = MultiGcdBackend::new(spec.flavor, devices);
        let opts = qsim_backends::PlanOptions {
            strategy: spec.strategy,
            max_fused_qubits: spec.max_fused,
        };
        let plan = Arc::new(backend.plan_circuit(&spec.circuit, &opts, spec.precision));
        if !plan.predicted_cost_seconds.is_finite() {
            return Err(SubmitError::Invalid(format!(
                "circuit cannot shard across {devices} devices: a fused gate \
                 exceeds the shard width (resubmit with a smaller max_fused)"
            )));
        }
        let m = n - devices.trailing_zeros() as usize;
        let exchanged_bytes =
            SwapSchedule::plan(&plan.fused, m, SwapPolicy::Lookahead).map_or(0, |schedule| {
                schedule
                    .bytes_per_device(1usize << m, spec.precision.amplitude_bytes())
                    .saturating_mul(devices as u64)
            });
        let fused_hash = plan.fused.content_hash();
        Ok(Route { reservation, devices, plan, fused_hash, exchanged_bytes })
    }

    /// `try_reserve` with one retry after shedding the result cache: when
    /// the ledger is full, cached results give their bytes back before
    /// live work is bounced — the cache must never starve live work while
    /// sitting on reclaimable ledger bytes.
    fn reserve_shedding(&self, bytes: u64) -> Result<Reservation, AdmissionError> {
        match self.inner.admission.try_reserve(bytes) {
            Err(AdmissionError::Rejected { .. }) if self.inner.results.shed(bytes) > 0 => {
                self.inner.admission.try_reserve(bytes)
            }
            other => other,
        }
    }

    /// The parsed, validated circuit qsim `text` describes, or
    /// the parser's error for it. A text seen before comes from the
    /// circuit table, so a resubmitted circuit is parsed and hashed once
    /// per service.
    pub fn circuit(&self, text: &str) -> Result<SharedCircuit, ParseError> {
        circuits::intern(&self.inner.circuits, text)
    }

    /// Submit a job. On success the job is queued and its [`JobId`]
    /// returned; poll [`Service::status`] until terminal.
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        self.submit_many([spec]).pop().expect("one verdict per spec")
    }

    /// Submit jobs — the one way in. Every spec is prepared on its own
    /// (per-spec verdicts come back in input order), then the accepted
    /// ones enter the registry in one lock round and the queue in
    /// another, so a gang can form from one call's jobs immediately and
    /// a Batch-class flight pays the rounds once, not once per job.
    pub fn submit_many(
        &self,
        specs: impl IntoIterator<Item = JobSpec>,
    ) -> Vec<Result<JobId, SubmitError>> {
        let mut results = Vec::new();
        let mut records = Vec::new();
        let mut jobs = Vec::new();
        // Sharded jobs' ids and planned exchange bytes: counted once the
        // job is past the last point it can be refused.
        let mut routed: Vec<(JobId, u64)> = Vec::new();
        for spec in specs {
            results.push(self.prepare_submission(spec).map(|admitted| {
                if let Some(job) = admitted.job {
                    if job.devices > 1 {
                        routed.push((admitted.id, admitted.exchanged_bytes));
                    }
                    jobs.push(job);
                }
                records.push((admitted.id, admitted.record));
                admitted.id
            }));
        }
        let mut accepted = records.len() as u64;
        let hits = accepted - jobs.len() as u64;
        if accepted > 0 {
            let now = Instant::now();
            self.inner.registry.lock().admit(records, now);
        }
        // The queue has the last word: it sheds what its traffic backlog
        // cannot take, and refuses everything once shutdown closed it.
        let ids: Vec<JobId> = jobs.iter().map(|job| job.id).collect();
        // (Nothing to queue — a call of cache hits only — wakes no worker.)
        let pushed = if jobs.is_empty() { Ok(Vec::new()) } else { self.inner.queue.push(jobs) };
        let refused: Vec<(JobId, SubmitError)> = match pushed {
            Ok(shed) => shed.into_iter().map(|(id, e)| (id, SubmitError::Rejected(e))).collect(),
            Err(_closed) => ids.into_iter().map(|id| (id, SubmitError::ShuttingDown)).collect(),
        };
        if !refused.is_empty() {
            // Undo the registrations; dropping a record returns its
            // memory reservation.
            let mut registry = self.inner.registry.lock();
            for (id, error) in refused {
                registry.remove(id);
                routed.retain(|(routed_id, _)| *routed_id != id);
                accepted -= 1;
                if let Some(verdict) = results.iter_mut().find(|r| **r == Ok(id)) {
                    *verdict = Err(error);
                }
            }
        }
        let rejected =
            results.iter().filter(|r| matches!(r, Err(SubmitError::Rejected(_)))).count();
        self.inner.rejected.fetch_add(rejected as u64, Ordering::Relaxed);
        self.inner.submitted.fetch_add(accepted, Ordering::Relaxed);
        self.inner.routed_sharded.fetch_add(routed.len() as u64, Ordering::Relaxed);
        let exchanged = routed.iter().fold(0u64, |sum, (_, bytes)| sum.saturating_add(*bytes));
        self.inner.sharded_exchanged_bytes.fetch_add(exchanged, Ordering::Relaxed);
        if hits > 0 {
            // A hit completes a job; it contributes no wall/setup time
            // (nothing ran), so the timing aggregates are untouched.
            self.inner.aggregates.lock().completed += hits;
        }
        results
    }

    /// Current state of a job, or `None` for an id never accepted. A job
    /// whose record aged out still answers its terminal state.
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        self.inner.registry.lock().status(id)
    }

    /// The run report of a `Done` job, or `None` while it is still in
    /// flight, for a non-`Done` terminal state, an unknown id, or a job
    /// whose record aged out ([`Service::result`] tells them apart).
    pub fn report(&self, id: JobId) -> Option<RunReport> {
        self.result(id).ok().map(|report| RunReport::clone(&report))
    }

    /// The run report of a `Done` job, shared, or why there is none.
    /// Reading a terminal job's result delivers it: from then on its
    /// record may age out.
    pub fn result(&self, id: JobId) -> Result<Arc<RunReport>, ResultError> {
        self.inner.registry.lock().result(id)
    }

    /// Take the retained final state of a `Done` job that was submitted
    /// with [`JobSpec::keep_state`], and release its budget charge. The
    /// state is moved out: a second call returns `None`, and so does a
    /// call after the job's record aged out (the state went with it).
    ///
    /// [`JobSpec::keep_state`]: crate::job::JobSpec::keep_state
    pub fn take_state(&self, id: JobId) -> Option<FinalState> {
        let mut registry = self.inner.registry.lock();
        let record = registry.record(id)?;
        let state = record.state_vector.take()?;
        record.delivered = true;
        record.reservation = None;
        Some(state)
    }

    /// Request cancellation. Returns `false` for unknown ids and jobs
    /// already in a terminal state; `true` means the token fired and the
    /// job will unwind at its next gate boundary (or never start).
    pub fn cancel(&self, id: JobId) -> bool {
        let mut registry = self.inner.registry.lock();
        match registry.record(id) {
            Some(record) if !record.state.is_terminal() => {
                record.cancel.cancel();
                true
            }
            _ => false,
        }
    }

    /// Counter snapshot for the `metrics` verb.
    pub fn metrics(&self) -> Metrics {
        let agg = *self.inner.aggregates.lock();
        let (registry_records, registry_aged_out) = self.inner.registry.lock().sizes();
        Metrics {
            workers: self.config.workers.max(1),
            accepting: self.inner.accepting.load(Ordering::Acquire),
            queue_depth: self.inner.queue.len(),
            submitted: self.inner.submitted.load(Ordering::Relaxed),
            rejected: self.inner.rejected.load(Ordering::Relaxed),
            running: self.inner.running.load(Ordering::Relaxed),
            completed: agg.completed,
            failed: agg.failed,
            cancelled: agg.cancelled,
            timed_out: agg.timed_out,
            pool: self.inner.pool.stats(),
            pool_buckets: self.inner.pool.bucket_stats(),
            budget_bytes: self.inner.admission.budget_bytes(),
            reserved_bytes: self.inner.admission.reserved_bytes(),
            bandwidth: self.inner.queue.bandwidth_snapshot(),
            batches: agg.batches,
            batched_jobs: agg.batched_jobs,
            routed_sharded: self.inner.routed_sharded.load(Ordering::Relaxed),
            sharded_completed: agg.sharded_completed,
            sharded_exchanged_bytes: self.inner.sharded_exchanged_bytes.load(Ordering::Relaxed),
            sharded_exchange_seconds: agg.sharded_exchange_seconds,
            total_wall_seconds: agg.total_wall_seconds,
            total_setup_seconds: agg.total_setup_seconds,
            cold_setup_seconds_avg: mean(agg.cold_setup_seconds, agg.cold_runs),
            warm_setup_seconds_avg: mean(agg.warm_setup_seconds, agg.warm_runs),
            buffer_reuses: agg.warm_runs,
            max_peak_state_bytes: agg.max_peak_state_bytes,
            circuit_cache: self.inner.circuits.stats(),
            plan_cache: self.inner.plans.stats(),
            result_cache: self.inner.results.stats(),
            io: self.inner.io.snapshot(),
            registry_records,
            registry_aged_out,
        }
    }

    /// Hand the finish sequence the mux's I/O-thread wakers and return
    /// them as registered. A service is served by one front end: a second
    /// registration is refused.
    pub(crate) fn register_wakers(&self, wakers: Vec<Waker>) -> std::io::Result<&[Waker]> {
        self.inner.wakers.set(wakers.into_boxed_slice()).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                "this service is already served by a mux front end",
            )
        })?;
        Ok(self.inner.wakers.get().map_or(&[], |w| &w[..]))
    }

    /// The counters the mux's I/O threads keep.
    pub(crate) fn io_counters(&self) -> &IoCounters {
        &self.inner.io
    }

    /// Poll a job until it reaches a terminal state or `timeout` passes.
    /// Returns the final (or last observed) status; `None` only for an
    /// id never accepted.
    pub fn wait(&self, id: JobId, timeout: Duration) -> Option<JobStatus> {
        let deadline = Instant::now() + timeout;
        loop {
            let status = self.status(id)?;
            if status.state.is_terminal() || Instant::now() >= deadline {
                return Some(status);
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Graceful shutdown: refuse new submissions, let the workers drain
    /// everything already queued or running, then join them. Idempotent.
    pub fn shutdown(&self) {
        self.inner.accepting.store(false, Ordering::Release);
        self.inner.queue.close();
        // Take the pool out under the lock but join *outside* it: a
        // worker unwinding through a panic hook (or a second caller
        // racing this one) must never find `workers` held by a thread
        // that is itself parked in `join`.
        let workers = self.workers.lock().take();
        if let Some(workers) = workers {
            workers.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn mean(sum: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}
