//! Integration tests for the service under concurrency: correctness of
//! parallel execution against single-threaded references, admission
//! backpressure, and buffer recycling across cancelled jobs.

use std::time::Duration;

use qsim_backends::{Flavor, PlanOptions, RunContext, RunOptions, SimBackend};
use qsim_core::types::{Cplx, Float, Precision};
use qsim_core::AlignedAmps;
use qsim_fusion::FusionStrategy;
use qsim_serve::{FinalState, JobSpec, JobState, Priority, Service, ServiceConfig};

const WAIT: Duration = Duration::from_secs(120);

/// Run `spec` directly on a fresh backend in the calling thread — the
/// single-threaded reference the service results must match bit-for-bit.
fn reference_state<F: Float>(spec: &JobSpec) -> AlignedAmps<F> {
    let backend = SimBackend::new(spec.flavor);
    let opts = PlanOptions { strategy: spec.strategy, max_fused_qubits: spec.max_fused };
    let plan = backend.plan_circuit(&spec.circuit, &opts, F::PRECISION);
    let run_opts = RunOptions { seed: spec.seed, sample_count: spec.sample_count };
    let (state, _) = backend
        .run_with::<F>(&plan.fused, &run_opts, RunContext::default())
        .map_err(|f| f.error)
        .expect("reference run");
    state.into_amplitudes()
}

fn assert_bits_equal<F: Float>(got: &[Cplx<F>], want: &[Cplx<F>], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.re.to_f64().to_bits() == w.re.to_f64().to_bits()
                && g.im.to_f64().to_bits() == w.im.to_f64().to_bits(),
            "{label}: amplitude {i} differs: got {:?}+{:?}i, want {:?}+{:?}i",
            g.re.to_f64(),
            g.im.to_f64(),
            w.re.to_f64(),
            w.im.to_f64(),
        );
    }
}

/// The tentpole correctness property: ≥ 8 circuits of mixed sizes,
/// flavors, precisions and fusion settings pushed through an 8-worker
/// pool in parallel produce final states bit-for-bit identical to
/// single-threaded execution of the same plans.
#[test]
fn eight_mixed_jobs_in_parallel_match_single_threaded_bit_for_bit() {
    use qsim_circuit::library;

    let mut specs = Vec::new();
    for (i, circuit) in [
        library::bell(),
        library::ghz(10),
        library::ghz(14),
        library::qft(8),
        library::qft(11),
        library::random_dense(6, 60, 11),
        library::random_dense(9, 90, 22),
        library::random_dense(12, 40, 33),
        library::ghz(12),
        library::qft(9),
    ]
    .into_iter()
    .enumerate()
    {
        let mut spec = JobSpec::new(circuit);
        spec.flavor = if i % 2 == 0 { Flavor::CpuAvx } else { Flavor::Hip };
        spec.precision = if i % 3 == 0 { Precision::Double } else { Precision::Single };
        spec.strategy = if i % 2 == 0 { FusionStrategy::Greedy } else { FusionStrategy::Cost };
        spec.max_fused = 2 + i % 3;
        spec.seed = i as u64;
        spec.priority = Priority::ALL[i % 3];
        spec.keep_state = true;
        specs.push(spec);
    }

    let service = Service::start(ServiceConfig { workers: 8, ..ServiceConfig::default() });
    let ids: Vec<_> =
        specs.iter().map(|spec| service.submit(spec.clone()).expect("submit")).collect();

    for (id, spec) in ids.iter().zip(&specs) {
        let status = service.wait(*id, WAIT).expect("known job");
        assert_eq!(status.state, JobState::Done, "{id:?}: {:?}", status.error);
        let label = format!("job {id:?} ({} qubits)", spec.circuit.num_qubits);
        match service.take_state(*id).expect("kept state") {
            FinalState::F32(amps) => {
                assert_eq!(spec.precision, Precision::Single);
                assert_bits_equal(&amps, &reference_state::<f32>(spec), &label);
            }
            FinalState::F64(amps) => {
                assert_eq!(spec.precision, Precision::Double);
                assert_bits_equal(&amps, &reference_state::<f64>(spec), &label);
            }
        }
        assert!(service.take_state(*id).is_none(), "state is moved out once");
    }

    let metrics = service.metrics();
    assert_eq!(metrics.completed, specs.len() as u64);
    assert_eq!((metrics.failed, metrics.cancelled, metrics.timed_out), (0, 0, 0));
    service.shutdown();
}

/// A slow job (big circuit, double precision) to hold the worker and the
/// admission budget for a while.
fn slow_spec() -> JobSpec {
    let mut spec = JobSpec::new(qsim_circuit::library::random_dense(16, 4000, 7));
    spec.precision = Precision::Double;
    spec
}

/// Over-budget submissions bounce with a retry hint instead of OOMing,
/// and the budget frees once the holding job reaches a terminal state.
#[test]
fn backpressure_rejects_then_recovers() {
    let slow = slow_spec();
    let budget = slow.state_bytes(); // exactly one slow job fits
    let service = Service::start(ServiceConfig {
        workers: 1,
        memory_budget_bytes: budget,
        ..ServiceConfig::default()
    });

    let held = service.submit(slow).expect("first job fits");
    let mut small = JobSpec::new(qsim_circuit::library::ghz(12));
    small.priority = Priority::High;
    match service.submit(small.clone()) {
        Err(qsim_serve::SubmitError::Rejected(qsim_serve::AdmissionError::Rejected {
            retry_after,
            ..
        })) => assert!(retry_after > Duration::ZERO, "retry hint must be actionable"),
        other => panic!("expected backpressure, got {other:?}"),
    }
    assert_eq!(service.metrics().rejected, 1);

    // A job too big for the whole budget is permanently rejected.
    let mut huge = JobSpec::new(qsim_circuit::library::ghz(28));
    huge.precision = Precision::Double;
    match service.submit(huge) {
        Err(qsim_serve::SubmitError::Rejected(qsim_serve::AdmissionError::TooLarge { .. })) => {}
        other => panic!("expected TooLarge, got {other:?}"),
    }

    // Cancel the holder; once it is terminal its reservation is gone and
    // the small job is admitted and completes.
    assert!(service.cancel(held));
    let status = service.wait(held, WAIT).expect("known job");
    assert!(status.state.is_terminal());
    assert_eq!(service.metrics().reserved_bytes, 0, "terminal job must release its hold");
    let id = service.submit(small).expect("budget freed");
    let status = service.wait(id, WAIT).expect("known job");
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    service.shutdown();
}

/// The sharded-routing counters describe accepted jobs only: a routed
/// submission the traffic backlog then sheds was never accepted, so it
/// counts as rejected, not routed, and its shard reservation is back.
#[test]
fn shed_sharded_submission_is_not_counted_as_routed() {
    let service = Service::start(ServiceConfig {
        memory_budget_bytes: 1 << 20,
        bandwidth_budget_bps: 1,
        ..ServiceConfig::default()
    });
    // 2 MiB of state over a 1 MiB budget routes across 2 devices; any
    // real plan models more than the 64 B/s backlog cap.
    match service.submit(JobSpec::new(qsim_circuit::library::ghz(18))) {
        Err(qsim_serve::SubmitError::Rejected(qsim_serve::AdmissionError::Saturated {
            ..
        })) => {}
        other => panic!("expected Saturated, got {other:?}"),
    }
    let metrics = service.metrics();
    assert_eq!((metrics.routed_sharded, metrics.sharded_exchanged_bytes), (0, 0));
    assert_eq!((metrics.submitted, metrics.rejected), (0, 1));
    assert_eq!(metrics.reserved_bytes, 0, "the shard reservation must be returned");
    assert_eq!(metrics.queue_depth, 0);
    service.shutdown();
}

/// A cancelled job's state buffer comes back to the pool — the next
/// same-shaped job adopts it — and the worker moves on to later jobs. On
/// a budget of half its state the job is routed across two devices, and
/// the sharded run is cancelled, recycled and charged back the same way.
#[test]
fn cancelled_job_recycles_its_buffer_and_worker_proceeds() {
    let half_state = slow_spec().state_bytes() / 2;
    for (budget, devices) in [(ServiceConfig::default().memory_budget_bytes, 1), (half_state, 2)] {
        let service = Service::start(ServiceConfig {
            workers: 1,
            memory_budget_bytes: budget,
            ..ServiceConfig::default()
        });

        let victim = service.submit(slow_spec()).expect("submit");
        // Wait until the worker has actually started it, so a buffer has
        // been (or is about to be) acquired, then cancel mid-run.
        let deadline = std::time::Instant::now() + WAIT;
        while service.status(victim).expect("known job").state == JobState::Queued {
            assert!(std::time::Instant::now() < deadline, "job never started");
            std::thread::sleep(Duration::from_millis(1));
        }
        service.cancel(victim);
        let status = service.wait(victim, WAIT).expect("known job");
        assert_eq!(status.devices, devices);
        // Almost always Cancelled; Done only if the run beat the token to
        // the last gate. Either way the buffer must land in the pool, and
        // the job's reservation and traffic charge come back.
        assert!(status.state.is_terminal());
        let m = service.metrics();
        assert!(m.pool.pooled_buffers >= 1, "terminal job must hand its buffer to the pool");
        assert_eq!(m.reserved_bytes, 0, "{devices} device(s): reservation returned");
        assert_eq!(
            (m.bandwidth.running_bps, m.bandwidth.running_jobs),
            (0, 0),
            "{devices} device(s): traffic charge returned"
        );

        // The worker is still alive and the next same-shaped job adopts
        // the recycled buffer.
        let successor = service.submit(slow_spec()).expect("submit");
        let status = service.wait(successor, WAIT).expect("known job");
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        let report = service.report(successor).expect("report");
        assert!(report.buffer_reused, "successor must adopt the cancelled job's buffer");
        assert!(service.metrics().pool.hits >= 1);
        service.shutdown();
    }
}

/// A routed `keep_state` job hands back the state the single-device run
/// computes — in logical order, after the walk undid its layout.
#[test]
fn a_routed_jobs_kept_state_is_the_single_device_state() {
    let mut spec = JobSpec::new(qsim_circuit::library::random_dense(14, 200, 5));
    spec.keep_state = true;
    let service = Service::start(ServiceConfig {
        workers: 1,
        memory_budget_bytes: spec.state_bytes() / 4,
        ..ServiceConfig::default()
    });
    let id = service.submit(spec.clone()).expect("submit");
    let status = service.wait(id, WAIT).expect("known job");
    assert_eq!(status.state, JobState::Done, "{:?}", status.error);
    assert_eq!(status.devices, 4);
    let Some(FinalState::F32(amps)) = service.take_state(id) else {
        panic!("a kept f32 state");
    };
    let want = reference_state::<f32>(&spec);
    let diff =
        amps.iter().zip(want.iter()).map(|(a, b)| (*a - *b).norm_sqr().sqrt()).fold(0.0, f32::max);
    assert!(diff < 1e-4, "sharded state differs from the single-device one by {diff}");
    service.shutdown();
}

/// A job whose deadline expires while still queued times out without ever
/// touching a backend, releases its reservation, and later jobs run.
#[test]
fn queued_timeout_releases_reservation() {
    let service = Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
    let mut spec = JobSpec::new(qsim_circuit::library::ghz(10));
    spec.timeout = Some(Duration::ZERO); // expired at submission
    let id = service.submit(spec).expect("submit");
    let status = service.wait(id, WAIT).expect("known job");
    assert_eq!(status.state, JobState::TimedOut);
    let metrics = service.metrics();
    assert_eq!(metrics.timed_out, 1);
    assert_eq!(metrics.reserved_bytes, 0);

    let next = service.submit(JobSpec::new(qsim_circuit::library::bell())).expect("submit");
    assert_eq!(service.wait(next, WAIT).expect("known job").state, JobState::Done);
    service.shutdown();
}

/// Warm pool: repeated same-shaped jobs reuse one allocation, and the
/// metrics aggregation splits cold from warm setup. The result cache is
/// disabled so the repeats actually execute (a cache hit never touches
/// the buffer pool — that fast path has its own tests).
#[test]
fn warm_pool_reuses_buffers_across_sequential_jobs() {
    let service = Service::start(ServiceConfig {
        workers: 1,
        result_cache_budget_bytes: 0,
        ..ServiceConfig::default()
    });
    let spec = JobSpec::new(qsim_circuit::library::ghz(16));
    let mut reused = Vec::new();
    for _ in 0..4 {
        let id = service.submit(spec.clone()).expect("submit");
        let status = service.wait(id, WAIT).expect("known job");
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        reused.push(service.report(id).expect("report").buffer_reused);
    }
    assert_eq!(reused, [false, true, true, true], "first run cold, rest warm");
    let metrics = service.metrics();
    assert_eq!(metrics.buffer_reuses, 3);
    assert_eq!(metrics.pool.hits, 3);
    assert!(metrics.warm_setup_seconds_avg >= 0.0 && metrics.cold_setup_seconds_avg > 0.0);
    service.shutdown();
}

/// Graceful shutdown drains queued jobs and then refuses new work.
#[test]
fn shutdown_drains_queued_jobs_then_rejects() {
    let service = Service::start(ServiceConfig { workers: 2, ..ServiceConfig::default() });
    let ids: Vec<_> = (0..6)
        .map(|i| service.submit(JobSpec::new(qsim_circuit::library::ghz(8 + i))).expect("submit"))
        .collect();
    service.shutdown();
    for id in ids {
        let status = service.status(id).expect("known job");
        assert_eq!(status.state, JobState::Done, "{id:?} must drain before shutdown returns");
    }
    match service.submit(JobSpec::new(qsim_circuit::library::bell())) {
        Err(qsim_serve::SubmitError::ShuttingDown) => {}
        other => panic!("expected ShuttingDown, got {other:?}"),
    }
    assert!(!service.metrics().accepting);
}
