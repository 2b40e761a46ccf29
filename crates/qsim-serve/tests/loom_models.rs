//! Interleaving models for the serve layer's lock-free and lock-based
//! accounting, run under the `loom` stand-in's stress mode (see
//! `third_party/README.md`): each model body executes `LOOM_ITERS`
//! times (default 64) with seeded per-iteration yield jitter on every
//! spawned thread, so the racing sections enter in a different order
//! each round. A failure here is a real bug; the models assert the
//! invariants the service's correctness rests on:
//!
//! 1. queue close/drain hands every accepted job to exactly one worker
//!    — on `push`/`pop`/`finish`, the pair workers really block in;
//! 2. buffer-pool counters agree with the buckets under churn;
//! 3. admission reservations never jointly overshoot the budget;
//! 4. a gang member cancelled mid-flight settles its memory reservation
//!    and traffic-ledger charge and leaves the pool whole (the
//!    mid-gang-cancellation regression test);
//! 5. dispatch never jointly overshoots the bandwidth budget: the gate
//!    is read and charged under one lock, so two workers cannot both
//!    take the nothing-is-running escape hatch.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use loom::thread;
use qsim_circuit::library;
use qsim_core::cancel::CancelToken;
use qsim_serve::queue::QueuedJob;
use qsim_serve::{
    AdmissionController, JobId, JobQueue, JobSpec, JobState, Priority, Service, ServiceConfig,
};

/// A queue whose bandwidth gate never closes and never sheds.
const WIDE_OPEN_BPS: u64 = u64::MAX / 2;

const WAIT: Duration = Duration::from_secs(120);

/// A planned, priced bell job, as the service would queue it.
fn bell_job(id: JobId, priority: Priority, seed: u64) -> QueuedJob {
    let mut spec = JobSpec::new(library::bell());
    spec.priority = priority;
    spec.seed = seed;
    let plan = Arc::new(QueuedJob::plan_spec(&spec));
    let fused_hash = plan.fused.content_hash();
    QueuedJob::new(id, spec, CancelToken::new(), plan, fused_hash)
}

/// Model 1: every job accepted by `push` before `close` is popped by
/// exactly one consumer, and the close/drain handshake loses nothing.
#[test]
fn queue_close_drains_each_accepted_job_exactly_once() {
    loom::model(|| {
        let queue = Arc::new(JobQueue::new(WIDE_OPEN_BPS));
        let accepted = Arc::new(Mutex::new(Vec::new()));
        let popped = Arc::new(Mutex::new(Vec::new()));

        let producers: Vec<_> = (0..2)
            .map(|p| {
                let queue = queue.clone();
                let accepted = accepted.clone();
                thread::spawn(move || {
                    for j in 0..4u64 {
                        let id = JobId(p * 100 + j);
                        let priority = Priority::ALL[((p + j) % 3) as usize];
                        if queue.push(vec![bell_job(id, priority, j)]) == Ok(Vec::new()) {
                            accepted.lock().unwrap().push(id);
                        }
                    }
                })
            })
            .collect();
        let consumers: Vec<_> = (0..2)
            .map(|_| {
                let queue = queue.clone();
                let popped = popped.clone();
                thread::spawn(move || {
                    while let Some(unit) = queue.pop(None, 1) {
                        popped.lock().unwrap().extend(unit.jobs.iter().map(|job| job.id));
                        queue.finish(&unit);
                    }
                })
            })
            .collect();

        for p in producers {
            p.join().unwrap();
        }
        queue.close();
        for c in consumers {
            c.join().unwrap();
        }

        let reject = bell_job(JobId(999), Priority::Normal, 0);
        assert!(queue.push(vec![reject]).is_err(), "push after close must be refused");

        let mut accepted = accepted.lock().unwrap().clone();
        let mut popped = popped.lock().unwrap().clone();
        accepted.sort_unstable_by_key(|id| id.0);
        popped.sort_unstable_by_key(|id| id.0);
        assert_eq!(accepted, popped, "each accepted job pops exactly once");
        assert_eq!(queue.len(), 0);
        let ledger = queue.bandwidth_snapshot();
        assert_eq!((ledger.queued_bps, ledger.running_bps, ledger.running_jobs), (0, 0, 0));
    });
}

/// Model 2: the pool's global counters stay consistent with the
/// per-bucket truth while threads churn acquire/release against a
/// deliberately tiny bucket cap (evictions race parks).
#[test]
fn pool_counters_agree_with_buckets_under_churn() {
    use qsim_core::types::Cplx;
    use qsim_core::AlignedAmps;
    use qsim_serve::StateBufferPool;

    const LEN: usize = 256;
    const PER_THREAD: u64 = 8;
    loom::model(|| {
        let pool = Arc::new(StateBufferPool::with_max_per_bucket(2));
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let pool = pool.clone();
                thread::spawn(move || {
                    for _ in 0..PER_THREAD {
                        let mut buf = pool
                            .acquire::<f32>(LEN)
                            .unwrap_or_else(|| AlignedAmps::try_zeroed(LEN).expect("1 KiB"));
                        buf[0] = Cplx::new(1.0, 0.0);
                        pool.release(buf);
                        thread::yield_now();
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }

        let stats = pool.stats();
        assert_eq!(stats.hits + stats.misses, 3 * PER_THREAD);
        assert!(stats.pooled_buffers <= 2, "one bucket, cap 2: {stats:?}");
        let buckets = pool.bucket_stats();
        assert_eq!(stats.pooled_buffers, buckets.iter().map(|b| b.pooled).sum::<u64>());
        assert_eq!(stats.pooled_bytes, buckets.iter().map(|b| b.pooled_bytes).sum::<u64>());
        assert_eq!(stats.evicted, buckets.iter().map(|b| b.evicted).sum::<u64>());
    });
}

/// Model 3: concurrent `try_reserve` calls never jointly overshoot the
/// byte budget (the CAS loop's whole reason to exist), and every drop
/// returns its bytes.
#[test]
fn admission_reservations_never_overshoot_the_budget() {
    const BUDGET: u64 = 1024;
    loom::model(|| {
        let admission = Arc::new(AdmissionController::new(BUDGET));
        let granted = Arc::new(AtomicU64::new(0));
        let workers: Vec<_> = (0..4)
            .map(|_| {
                let admission = admission.clone();
                let granted = granted.clone();
                thread::spawn(move || {
                    for _ in 0..6 {
                        if let Ok(r) = admission.try_reserve(300) {
                            granted.fetch_add(1, Ordering::Relaxed);
                            let reserved = admission.reserved_bytes();
                            assert!(reserved <= BUDGET, "budget overshot: {reserved} > {BUDGET}");
                            assert_eq!(r.bytes(), 300);
                            thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert!(granted.load(Ordering::Relaxed) > 0, "some reservation must win");
        assert_eq!(admission.reserved_bytes(), 0, "all reservations returned");
    });
}

/// Model 5: three workers `pop`/`finish` twelve jobs that each claim 60 %
/// of the budget, so no two may run together. Right after its `pop`
/// every worker checks the ledger: within budget, or it is the unit the
/// nothing-is-running escape hatch let through alone.
#[test]
fn dispatch_never_jointly_overshoots_the_bandwidth_budget() {
    const BUDGET: u64 = 100;
    loom::model(|| {
        let queue = Arc::new(JobQueue::new(BUDGET));
        let jobs = (0..12).map(|j| {
            let mut job = bell_job(JobId(j), Priority::Normal, j);
            job.demand_bps = 60;
            job
        });
        assert_eq!(queue.push(jobs.collect()), Ok(Vec::new()));
        queue.close();
        // Overshoots are collected, not asserted in place: a worker that
        // panicked holding a unit would leave the gate shut and turn the
        // failure into a hang.
        let overshoots = Arc::new(Mutex::new(Vec::new()));
        let done = Arc::new(AtomicU64::new(0));
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let (queue, overshoots, done) = (queue.clone(), overshoots.clone(), done.clone());
                thread::spawn(move || {
                    while let Some(unit) = queue.pop(None, 1) {
                        let ledger = queue.bandwidth_snapshot();
                        if ledger.running_bps > BUDGET && ledger.running_jobs != 1 {
                            overshoots.lock().unwrap().push(ledger);
                        }
                        thread::yield_now();
                        queue.finish(&unit);
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let overshoots = overshoots.lock().unwrap();
        assert!(overshoots.is_empty(), "gate jointly overshot: {overshoots:?}");
        assert_eq!(done.load(Ordering::Relaxed), 12, "every job dispatched exactly once");
        let ledger = queue.bandwidth_snapshot();
        assert_eq!((ledger.queued_bps, ledger.running_bps, ledger.running_jobs), (0, 0, 0));
    });
}

/// Model 4 — the mid-gang cancellation regression test. A single worker
/// is pinned on a heavier job while a 4-wide Batch gang queues behind
/// it; one gang member is cancelled in flight. Whenever the cancel
/// lands (queued, gang-dispatched, or mid-run at a gate boundary), the
/// service must settle completely: the cancelled member's memory
/// reservation is returned, the traffic ledger holds no queued or
/// running charge, surviving members complete, and the buffer pool
/// regains parked buffers instead of leaking them.
#[test]
fn cancelled_gang_member_returns_buffer_and_ledger_charge() {
    let proven = Arc::new(AtomicU64::new(0));
    let proven_in_model = proven.clone();
    loom::model(move || {
        // Result caching off: completed reports would otherwise hold a
        // legitimate ledger charge, and this model asserts the ledger
        // settles to zero once every *job* hold is returned.
        let service = Service::start(ServiceConfig {
            workers: 1,
            max_batch: 4,
            result_cache_budget_bytes: 0,
            ..ServiceConfig::default()
        });

        // Occupy the lone worker so the gang queues behind it.
        let mut heavy = JobSpec::new(library::random_dense(12, 120, 5));
        heavy.priority = Priority::High;
        let heavy_id = service.submit(heavy).expect("submit heavy");

        let gang: Vec<JobSpec> = (0..4)
            .map(|i| {
                let mut spec = JobSpec::new(library::ghz(9));
                spec.priority = Priority::Batch;
                spec.seed = i;
                spec
            })
            .collect();
        let gang_ids: Vec<JobId> =
            service.submit_many(gang).into_iter().map(|r| r.expect("gang submit")).collect();
        let victim = gang_ids[2];
        service.cancel(victim);

        let mut final_states = HashMap::new();
        for &id in gang_ids.iter().chain(std::iter::once(&heavy_id)) {
            let status = service.wait(id, WAIT).expect("known id");
            assert!(status.state.is_terminal(), "{id} stuck in {:?}", status.state);
            final_states.insert(id, status.state);
        }

        // Survivors finish regardless of where the victim's cancel hit.
        for &id in &gang_ids {
            if id != victim {
                assert_eq!(final_states[&id], JobState::Done, "{id}");
            }
        }
        if final_states[&victim] == JobState::Cancelled {
            assert!(service.report(victim).is_none(), "cancelled member has no report");
            proven_in_model.fetch_add(1, Ordering::Relaxed);
        }

        // Full settlement: both admission ledgers empty, pool whole.
        let metrics = service.metrics();
        assert_eq!(metrics.reserved_bytes, 0, "memory reservations all returned");
        assert_eq!(metrics.bandwidth.queued_bps, 0, "queued traffic charge returned");
        assert_eq!(metrics.bandwidth.running_bps, 0, "running traffic charge returned");
        assert_eq!(metrics.bandwidth.running_jobs, 0);
        assert!(metrics.pool.pooled_buffers >= 1, "completed buffers re-park: {:?}", metrics.pool);

        service.shutdown();
    });
    // The interesting interleaving — cancel landing before the victim
    // ran — must actually occur across the model's iterations, or the
    // test proves nothing. The worker is busy for milliseconds while
    // cancel() lands in microseconds, so this is overwhelmingly likely
    // every single iteration.
    assert!(proven.load(Ordering::Relaxed) > 0, "cancel never beat the gang dispatch");
}
