//! The serve layer's lock nestings, pinned.
//!
//! Drives a representative service workload — single and batched
//! submission, polling verbs, cancellation, metrics, state retrieval,
//! graceful shutdown, a sharded job — with the `debug_assertions`
//! tracker armed (every serve lock is a `lockorder::Mutex`, so none is
//! taken untracked), then asserts the ordering pairs the tracker observed
//! *equal* [`PINNED_EDGES`]. A new nesting fails here and is admitted by
//! editing the list — a deliberate, reviewed change; an inversion of a
//! listed pair panics at the acquisition site in any debug run.

#![cfg(debug_assertions)]

use std::time::Duration;

use qsim_circuit::library;
use qsim_core::lockorder;
use qsim_serve::{JobSpec, Priority, Service, ServiceConfig};

const WAIT: Duration = Duration::from_secs(120);

/// Every `(outer, inner)` pair of serve lock sites that may nest, sorted.
/// `finish_many` folds each outcome under `registry` then `aggregates`;
/// the queue, pool and worker-handle locks are leaves.
const PINNED_EDGES: &[(&str, &str)] = &[(
    "qsim-serve::service::ServiceInner.registry",
    "qsim-serve::service::ServiceInner.aggregates",
)];

#[test]
fn observed_lock_orderings_equal_the_pinned_list() {
    lockorder::reset_observed_edges();

    let service = Service::start(ServiceConfig { workers: 4, ..ServiceConfig::default() });

    // Mixed single submissions across priorities, one with retained state.
    let mut keep = JobSpec::new(library::ghz(8));
    keep.keep_state = true;
    let keep_id = service.submit(keep).expect("submit keep_state");
    let mut ids = vec![keep_id];
    for (i, circuit) in
        [library::bell(), library::qft(6), library::random_dense(7, 40, 9)].into_iter().enumerate()
    {
        let mut spec = JobSpec::new(circuit);
        spec.priority = Priority::ALL[i % 3];
        spec.seed = i as u64;
        ids.push(service.submit(spec).expect("submit"));
    }

    // A hash-equal Batch-class flight: exercises the plan cache's read
    // and write paths plus gang coalescing in `JobQueue::pop`.
    let batch: Vec<JobSpec> = (0..6)
        .map(|i| {
            let mut spec = JobSpec::new(library::ghz(9));
            spec.priority = Priority::Batch;
            spec.seed = i;
            spec
        })
        .collect();
    for result in service.submit_many(batch) {
        ids.push(result.expect("batch submit"));
    }

    // A cancellation races the queue; whichever way it lands, both the
    // cancel and finish paths take their locks.
    service.cancel(*ids.last().unwrap());

    for &id in &ids {
        let status = service.wait(id, WAIT).expect("known id");
        assert!(status.state.is_terminal(), "job {id:?} stuck in {:?}", status.state);
        let _ = service.report(id);
    }
    let _ = service.take_state(keep_id);
    let _ = service.metrics();
    service.shutdown();

    // A sharded-job workload against a small budget: the TooLarge routing
    // path (devices sizing, sharded planning, multi-GCD run, sharded
    // metrics fold) takes whatever locks it takes under the tracker too.
    let small = Service::start(ServiceConfig {
        workers: 2,
        memory_budget_bytes: 1 << 20,
        ..ServiceConfig::default()
    });
    let sharded_id = small.submit(JobSpec::new(library::ghz(18))).expect("route sharded");
    let status = small.wait(sharded_id, WAIT).expect("known id");
    assert!(status.state.is_terminal(), "sharded job stuck in {:?}", status.state);
    assert_eq!(status.devices, 2, "2 MiB state over a 1 MiB budget shards across 2 devices");
    let metrics = small.metrics();
    assert_eq!(metrics.routed_sharded, 1);
    assert_eq!(metrics.sharded_completed, 1);
    small.shutdown();

    assert_eq!(
        lockorder::observed_edges(),
        PINNED_EDGES,
        "the serve lock nestings changed: a new edge is a design decision — \
         justify it and edit PINNED_EDGES"
    );
}
