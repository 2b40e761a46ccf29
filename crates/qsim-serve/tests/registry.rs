//! The job registry ages terminal records out to a verdict: records stay
//! bounded under sustained traffic, `status` answers for every id ever
//! accepted, and `result` tells an aged-out job (`expired`) from one that
//! never existed (`unknown job id`).

use std::time::Duration;

use qsim_circuit::library;
use qsim_core::types::Precision;
use qsim_serve::protocol::handle_line;
use qsim_serve::{
    AdmissionError, JobId, JobSpec, JobState, Priority, ResultError, Service, ServiceConfig,
    SubmitError, RETAINED_TERMINAL,
};
use serde_json::Value;

const WAIT: Duration = Duration::from_secs(120);

/// A small sampled job whose resubmissions are result-cache hits.
fn cached_spec() -> JobSpec {
    let mut spec = JobSpec::new(library::ghz(6));
    spec.sample_count = 8;
    spec.seed = 3;
    spec
}

fn one_worker() -> Service {
    Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() })
}

/// Run `spec` once and wait for it, so that every key-equal resubmission
/// is born done.
fn warm(service: &Service, spec: &JobSpec) -> JobId {
    let id = service.submit(spec.clone()).expect("submit");
    let status = service.wait(id, WAIT).expect("known id");
    assert_eq!(status.state, JobState::Done, "{status:?}");
    id
}

/// `count` cache hits, each result read as a client would.
fn delivered_hits(service: &Service, spec: &JobSpec, count: usize) -> Vec<JobId> {
    (0..count)
        .map(|_| {
            let id = service.submit(spec.clone()).expect("cache hit");
            let report = service.result(id).expect("born done");
            assert_eq!(report.samples.len(), spec.sample_count);
            id
        })
        .collect()
}

fn wire(service: &Service, line: &str) -> Value {
    handle_line(service, line).response
}

#[test]
fn records_stay_bounded_and_every_id_keeps_its_status() {
    let service = one_worker();
    let spec = cached_spec();
    let mut ids = vec![warm(&service, &spec)];
    service.result(ids[0]).expect("done");
    for _ in 0..4 {
        ids.extend(delivered_hits(&service, &spec, RETAINED_TERMINAL));
        let m = service.metrics();
        assert!(m.registry_records <= RETAINED_TERMINAL, "{} records", m.registry_records);
    }
    let m = service.metrics();
    assert_eq!(m.registry_records, RETAINED_TERMINAL);
    assert_eq!(m.registry_aged_out as usize, ids.len() - RETAINED_TERMINAL);
    assert_eq!(m.completed as usize, ids.len());

    for &id in &ids {
        let status = service.status(id).expect("every accepted id answers");
        assert_eq!((status.state, status.num_qubits, status.devices), (JobState::Done, 6, 1));
        assert_eq!(service.wait(id, Duration::ZERO), Some(status));
    }
    let oldest = ids[0];
    assert_eq!(service.result(oldest).err(), Some(ResultError::Expired(JobState::Done)));
    assert_eq!(service.report(oldest), None);
    assert!(service.result(*ids.last().unwrap()).is_ok(), "the newest record is kept");
    let never = JobId(ids.last().unwrap().0 + 1000);
    assert_eq!(service.status(never), None);
    assert_eq!(service.result(never).err(), Some(ResultError::UnknownJob));

    // The same on the wire.
    let expired = wire(&service, &format!(r#"{{"verb":"result","id":{}}}"#, oldest.0));
    assert_eq!(expired.get("ok").and_then(Value::as_bool), Some(false), "{expired:?}");
    assert_eq!(expired.get("expired").and_then(Value::as_bool), Some(true), "{expired:?}");
    assert_eq!(expired.get("state").and_then(Value::as_str), Some("done"), "{expired:?}");
    let error = expired.get("error").and_then(Value::as_str).unwrap();
    assert_eq!(error, format!("job {} expired: its result aged out of the registry", oldest.0));
    let unknown = wire(&service, &format!(r#"{{"verb":"result","id":{}}}"#, never.0));
    assert_eq!(unknown.get("expired"), None, "{unknown:?}");
    let error = unknown.get("error").and_then(Value::as_str).unwrap();
    assert_eq!(error, format!("unknown job id {}", never.0));
    let status = wire(&service, &format!(r#"{{"verb":"status","id":{}}}"#, oldest.0));
    assert_eq!(status.get("state").and_then(Value::as_str), Some("done"), "{status:?}");
    let metrics = wire(&service, r#"{"verb":"metrics"}"#);
    let registry = metrics.get("metrics").and_then(|m| m.get("registry")).unwrap();
    assert_eq!(registry.get("records").and_then(Value::as_u64), Some(RETAINED_TERMINAL as u64));
    assert_eq!(
        registry.get("aged_out").and_then(Value::as_u64),
        Some((ids.len() - RETAINED_TERMINAL) as u64)
    );
    service.shutdown();
}

/// An aged-out job answers `status` with what it was submitted as and
/// how it ended, whatever that was.
#[test]
fn an_aged_out_status_keeps_its_class_backend_width_and_end() {
    let service = one_worker();
    let mut shaped = JobSpec::new(library::qft(7));
    shaped.priority = Priority::High;
    shaped.flavor = qsim_backends::Flavor::Hip;
    shaped.precision = Precision::Double;
    let shaped = warm(&service, &shaped);
    let mut late = JobSpec::new(library::bell());
    late.timeout = Some(Duration::ZERO);
    late.priority = Priority::Batch;
    let late = service.submit(late).expect("submit");
    assert_eq!(service.wait(late, WAIT).expect("known").state, JobState::TimedOut);
    let before = [service.status(shaped).unwrap(), service.status(late).unwrap()];
    // Reading the result delivers each, a report or not.
    assert!(service.result(shaped).is_ok());
    assert_eq!(service.result(late).err(), Some(ResultError::NoResult(JobState::TimedOut)));

    let spec = cached_spec();
    warm(&service, &spec);
    delivered_hits(&service, &spec, RETAINED_TERMINAL + 1);
    assert_eq!(service.result(shaped).err(), Some(ResultError::Expired(JobState::Done)));
    assert_eq!(service.result(late).err(), Some(ResultError::Expired(JobState::TimedOut)));
    let after = [service.status(shaped).unwrap(), service.status(late).unwrap()];
    assert_eq!(after, before);
    assert_eq!(after[0].flavor, qsim_backends::Flavor::Hip);
    assert_eq!((after[0].priority, after[0].num_qubits), (Priority::High, 7));
    assert!(!service.cancel(late), "an aged-out job is terminal");
    service.shutdown();
}

/// Nothing ages before it is delivered: a finished job nobody has read
/// outlives many later completions, then ages once read.
#[test]
fn an_unread_record_outlives_the_cap_and_ages_once_read() {
    let service = one_worker();
    let spec = cached_spec();
    warm(&service, &spec);
    let unread = service.submit(spec.clone()).expect("cache hit");
    delivered_hits(&service, &spec, 3 * RETAINED_TERMINAL);
    let report = service.result(unread).expect("kept until read");
    assert_eq!(report.samples.len(), spec.sample_count);
    delivered_hits(&service, &spec, RETAINED_TERMINAL + 2);
    assert_eq!(service.result(unread).err(), Some(ResultError::Expired(JobState::Done)));
    service.shutdown();
}

/// A kept final state stays charged to admission until it is taken.
#[test]
fn an_untaken_kept_state_holds_its_budget_until_taken() {
    // A 17-qubit single-precision state is the whole 1 MiB budget.
    let service = Service::start(ServiceConfig {
        workers: 1,
        memory_budget_bytes: 1 << 20,
        result_cache_budget_bytes: 0,
        ..ServiceConfig::default()
    });
    let mut keep = JobSpec::new(library::ghz(17));
    keep.keep_state = true;
    let kept = warm(&service, &keep);
    assert_eq!(service.metrics().reserved_bytes, 1 << 20);
    let next = JobSpec::new(library::ghz(17));
    match service.submit(next.clone()) {
        Err(SubmitError::Rejected(AdmissionError::Rejected { .. })) => {}
        other => panic!("an untaken state must hold its bytes: {other:?}"),
    }
    assert!(service.take_state(kept).is_some());
    assert_eq!(service.metrics().reserved_bytes, 0);
    let next = service.submit(next).expect("the taken state freed the budget");
    assert_eq!(service.wait(next, WAIT).expect("known").state, JobState::Done);
    service.shutdown();
}

/// A kept state nobody takes is dropped, charge and all, when its record
/// ages out.
#[test]
fn an_aged_out_kept_state_returns_its_budget() {
    let service = one_worker();
    let spec = cached_spec();
    warm(&service, &spec);
    let mut keep = JobSpec::new(library::ghz(12));
    keep.keep_state = true;
    let state_bytes = keep.state_bytes();
    let kept = warm(&service, &keep);
    let held = service.metrics().reserved_bytes;
    assert!(held >= state_bytes, "{held}");
    service.result(kept).expect("done");
    delivered_hits(&service, &spec, RETAINED_TERMINAL + 1);
    assert_eq!(service.metrics().reserved_bytes, held - state_bytes);
    assert!(service.take_state(kept).is_none(), "the state aged out with its record");
    service.shutdown();
}
