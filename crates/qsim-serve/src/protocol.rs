//! The wire protocol: newline-delimited JSON request/response.
//!
//! Every request is one JSON object on one line with a `verb` field;
//! every response is one JSON object on one line with an `ok` field.
//! The offline `serde` stand-in has no derive support, so requests are
//! decoded by hand off [`serde_json::Value`] and responses are built
//! with the `json!` macro — the protocol shapes live entirely in this
//! file.
//!
//! Verbs:
//!
//! | verb | request fields | success payload |
//! |---|---|---|
//! | `submit` | `circuit` (qsim text), `backend?`, `precision?`, `strategy?`, `max_fused?` (default 3), `seed?`, `sample_count?`, `priority?`, `timeout_ms?`, `stream?` | `id` |
//! | `status` | `id` | `state`, `priority`, `flavor`, `num_qubits`, `error?` |
//! | `result` | `id` | `report` (the run's [`RunReport`] JSON); `expired: true` once the job's record aged out |
//! | `cancel` | `id` | `cancelled` |
//! | `metrics` | — | `metrics` (cache counters under `circuit_cache`, `plan_cache`, `result_cache`) |
//! | `shutdown` | — | `shutting_down` (server drains and exits) |
//!
//! A `submit` field that is present with the wrong type (`"seed":"7"`,
//! `"stream":"yes"`) is refused with an error naming the field; an
//! absent one keeps [`JobSpec::new`]'s default: `cpu`, `single`, greedy
//! at `max_fused` 3, seed 0, no samples, `normal`, no deadline, no
//! stream. The `circuit` text goes through the
//! service's circuit table ([`Service::circuit`]): a text submitted
//! before is not parsed, validated or hashed again, which is the whole
//! submit-side cost of a result-cache hit. `metrics.circuit_cache`
//! counts the table's hits and misses.
//!
//! A rejected `submit` carries backpressure hints: `retry_after_ms` when
//! the memory budget is momentarily exhausted, `saturated: true` (plus
//! `retry_after_ms`) when the modeled-bandwidth backlog is shedding load,
//! and `too_large: true` when the job can never fit.
//!
//! A `submit` with `"stream": true` and a nonzero `sample_count` asks
//! the multiplexed server ([`crate::mux`]) to push the job's sampled
//! bitstrings as `{"event":"samples","id":…,"seq":…,"samples":[…],
//! "last":…}` frames once the job completes, instead of the client
//! polling `result`.
//!
//! [`RunReport`]: qsim_backends::RunReport

use std::time::Duration;

use serde_json::{json, Value};

use crate::admission::AdmissionError;
use crate::job::{JobId, JobSpec};
use crate::service::{ResultError, Service, SubmitError};

/// Outcome of one request line: the response document, plus whether the
/// server should begin shutting down after sending it.
#[derive(Debug)]
pub struct Handled {
    /// The response to write back, one line.
    pub response: Value,
    /// `true` only for an accepted `shutdown` verb.
    pub shutdown: bool,
    /// `Some(id)` for an accepted `submit` with `"stream": true` and a
    /// nonzero sample count: the mux server follows the acknowledgement
    /// with `samples` event frames when the job finishes.
    pub stream: Option<JobId>,
}

fn reply(payload: Value) -> Handled {
    Handled { response: payload, shutdown: false, stream: None }
}

fn err(message: impl std::fmt::Display) -> Handled {
    reply(json!({ "ok": false, "error": (message.to_string()) }))
}

/// Decode, dispatch and execute one request line against the service.
pub fn handle_line(service: &Service, line: &str) -> Handled {
    let request: Value = match serde_json::from_str(line) {
        Ok(v) => v,
        Err(e) => return err(format!("bad request JSON: {e}")),
    };
    let Some(verb) = request.get("verb").and_then(Value::as_str) else {
        return err("request needs a string 'verb' field");
    };
    match verb {
        "submit" => handle_submit(service, &request),
        "status" => with_id(&request, |id| match service.status(id) {
            Some(status) => reply(json!({
                "ok": true,
                "id": (status.id.0),
                "state": (status.state.label()),
                "priority": (status.priority.label()),
                "backend": (status.flavor.label()),
                "num_qubits": (status.num_qubits),
                "devices": (status.devices),
                "error": (status.error),
            })),
            None => err(format!("unknown job id {}", id.0)),
        }),
        "result" => with_id(&request, |id| match service.result(id) {
            Ok(report) => reply(json!({
                "ok": true,
                "id": (id.0),
                "report": (report.to_json()),
            })),
            Err(ResultError::UnknownJob) => err(format!("unknown job id {}", id.0)),
            Err(ResultError::NoResult(state)) => reply(json!({
                "ok": false,
                "error": (format!("job {} has no result (state: {})", id.0, state.label())),
                "state": (state.label()),
            })),
            // Its `status` still answers; the report aged out with the
            // record.
            Err(ResultError::Expired(state)) => reply(json!({
                "ok": false,
                "error": (format!("job {} expired: its result aged out of the registry", id.0)),
                "expired": true,
                "state": (state.label()),
            })),
        }),
        "cancel" => with_id(&request, |id| {
            reply(json!({ "ok": true, "id": (id.0), "cancelled": (service.cancel(id)) }))
        }),
        "metrics" => reply(json!({ "ok": true, "metrics": (service.metrics().to_json()) })),
        "shutdown" => Handled {
            response: json!({ "ok": true, "shutting_down": true }),
            shutdown: true,
            stream: None,
        },
        other => err(format!("unknown verb '{other}'")),
    }
}

fn with_id(request: &Value, f: impl FnOnce(JobId) -> Handled) -> Handled {
    match request.get("id").and_then(Value::as_u64) {
        Some(id) => f(JobId(id)),
        None => err("request needs an integer 'id' field"),
    }
}

fn handle_submit(service: &Service, request: &Value) -> Handled {
    let (spec, stream) = match decode_spec(service, request) {
        Ok(decoded) => decoded,
        Err(message) => return err(message),
    };
    let wants_stream = stream && spec.sample_count > 0;
    match service.submit(spec) {
        Ok(id) => {
            let mut handled = reply(json!({ "ok": true, "id": (id.0) }));
            if wants_stream {
                handled.stream = Some(id);
            }
            handled
        }
        Err(SubmitError::Rejected(e)) => {
            // One shape for every admission refusal: the variant picks
            // the flags, and whoever may usefully retry is told when.
            let flags: &[&str] = match e {
                AdmissionError::TooLarge { .. } => &["too_large"],
                AdmissionError::Rejected { .. } => &["rejected"],
                AdmissionError::Saturated { .. } => &["rejected", "saturated"],
            };
            let mut fields = vec![("ok".to_string(), json!(false))];
            fields.push(("error".to_string(), json!(e.to_string())));
            fields.extend(flags.iter().map(|flag| (flag.to_string(), json!(true))));
            if let Some(retry_after) = e.retry_after() {
                fields.push(("retry_after_ms".to_string(), json!(retry_after.as_millis() as u64)));
            }
            reply(Value::Object(fields))
        }
        Err(e) => err(e),
    }
}

/// Decode a `submit` request body into a [`JobSpec`] and its `stream`
/// flag. The circuit comes from the service's circuit table; an absent
/// field keeps its default, and a present one of the wrong type is an
/// error that names it.
fn decode_spec(service: &Service, request: &Value) -> Result<(JobSpec, bool), String> {
    let Some(text) = request.get("circuit").and_then(Value::as_str) else {
        return Err("submit needs a string 'circuit' field (qsim text format)".into());
    };
    let circuit = service.circuit(text).map_err(|e| format!("circuit parse error: {e}"))?;
    let mut spec = JobSpec::new(circuit);
    let text_field = |name| field(request, name, "a string", Value::as_str);
    let int_field = |name| field(request, name, "a non-negative integer", Value::as_u64);
    spec.flavor = text_field("backend")?.map_or(Ok(spec.flavor), str::parse)?;
    spec.precision = text_field("precision")?.map_or(Ok(spec.precision), str::parse)?;
    spec.strategy = text_field("strategy")?.map_or(Ok(spec.strategy), str::parse)?;
    spec.priority = text_field("priority")?.map_or(Ok(spec.priority), str::parse)?;
    // Range-validated by Service::submit against MAX_GATE_QUBITS.
    spec.max_fused = int_field("max_fused")?.map_or(spec.max_fused, |m| m as usize);
    spec.sample_count = int_field("sample_count")?.map_or(0, |n| n as usize);
    spec.timeout = int_field("timeout_ms")?.map(Duration::from_millis);
    // Any integer literal up to `u64::MAX`, exactly; an integral float
    // (`1e3`) up to the same bound, as the nearest double.
    let seed = |v: &Value| {
        let float =
            || v.as_f64().filter(|n| *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64);
        v.as_u64().or_else(|| float().map(|n| n as u64))
    };
    spec.seed = field(request, "seed", "a non-negative integer", seed)?.unwrap_or(0);
    let stream = field(request, "stream", "a boolean", Value::as_bool)?.unwrap_or(false);
    Ok((spec, stream))
}

/// `request[name]` through `read`: `None` when absent, an error naming
/// the field when present but not `expected`.
fn field<'a, T>(
    request: &'a Value,
    name: &str,
    expected: &str,
    read: impl FnOnce(&'a Value) -> Option<T>,
) -> Result<Option<T>, String> {
    let Some(value) = request.get(name) else { return Ok(None) };
    let got = || serde_json::to_string(value).unwrap_or_default();
    read(value)
        .map(Some)
        .ok_or_else(|| format!("submit field '{name}' must be {expected}, got {}", got()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobState;
    use crate::service::ServiceConfig;

    fn bell_text() -> String {
        qsim_circuit::parser::write_circuit(&qsim_circuit::library::bell())
    }

    fn small_service() -> Service {
        Service::start(ServiceConfig {
            workers: 2,
            memory_budget_bytes: 1 << 20,
            ..ServiceConfig::default()
        })
    }

    fn submit_line(service: &Service, line: &str) -> Value {
        handle_line(service, line).response
    }

    #[test]
    fn submit_status_result_round_trip() {
        let service = small_service();
        let req = serde_json::to_string(&json!({
            "verb": "submit",
            "circuit": (bell_text()),
            "backend": "hip",
            "precision": "double",
            "seed": 7,
        }))
        .unwrap();
        let resp = submit_line(&service, &req);
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true), "{resp:?}");
        let id = resp.get("id").and_then(Value::as_u64).unwrap();

        service.wait(JobId(id), std::time::Duration::from_secs(10));
        let status = submit_line(&service, &format!(r#"{{"verb":"status","id":{id}}}"#));
        assert_eq!(status.get("state").and_then(Value::as_str), Some("done"), "{status:?}");
        assert_eq!(status.get("backend").and_then(Value::as_str), Some("hip"));

        let result = submit_line(&service, &format!(r#"{{"verb":"result","id":{id}}}"#));
        assert_eq!(result.get("ok").and_then(Value::as_bool), Some(true));
        let report = result.get("report").unwrap();
        assert_eq!(report.get("qubits").and_then(Value::as_u64), Some(2));
        assert_eq!(report.get("backend").and_then(Value::as_str), Some("hip"));
        assert_eq!(report.get("precision").and_then(Value::as_str), Some("double"));
    }

    #[test]
    fn malformed_requests_get_typed_errors() {
        let service = small_service();
        for (line, needle) in [
            ("not json", "bad request JSON"),
            (r#"{"id":1}"#, "verb"),
            (r#"{"verb":"warp"}"#, "unknown verb"),
            (r#"{"verb":"status"}"#, "'id'"),
            (r#"{"verb":"status","id":999}"#, "unknown job id"),
            (r#"{"verb":"submit"}"#, "'circuit'"),
            (r#"{"verb":"submit","circuit":"2\nbroken"}"#, "parse error"),
            // A present field of the wrong type is refused, not defaulted.
            (r#"{"verb":"submit","circuit":"1\n0 h 0","seed":"7"}"#, "'seed'"),
            (r#"{"verb":"submit","circuit":"1\n0 h 0","seed":1.5}"#, "'seed'"),
            (r#"{"verb":"submit","circuit":"1\n0 h 0","sample_count":-1}"#, "'sample_count'"),
            (r#"{"verb":"submit","circuit":"1\n0 h 0","max_fused":2.5}"#, "'max_fused'"),
            (r#"{"verb":"submit","circuit":"1\n0 h 0","stream":"yes"}"#, "'stream'"),
            (r#"{"verb":"submit","circuit":"1\n0 h 0","backend":3}"#, "'backend'"),
            (r#"{"verb":"submit","circuit":"1\n0 h 0","precision":null}"#, "'precision'"),
            (r#"{"verb":"submit","circuit":"1\n0 h 0","strategy":[]}"#, "'strategy'"),
            (r#"{"verb":"submit","circuit":"1\n0 h 0","priority":1}"#, "'priority'"),
            (r#"{"verb":"submit","circuit":"1\n0 h 0","timeout_ms":"5"}"#, "'timeout_ms'"),
        ] {
            let resp = submit_line(&service, line);
            assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false), "{line}");
            let error = resp.get("error").and_then(Value::as_str).unwrap();
            assert!(error.contains(needle), "{line}: {error}");
        }
    }

    #[test]
    fn every_u64_seed_parses_and_absent_fields_keep_defaults() {
        let service = small_service();
        let decode = |fields: &str| {
            let line = format!(r#"{{"verb":"submit","circuit":"1\n0 h 0"{fields}}}"#);
            decode_spec(&service, &serde_json::from_str(&line).unwrap())
        };
        let (spec, stream) = decode("").unwrap();
        let default = JobSpec::new(spec.circuit.clone());
        assert_eq!((spec.seed, spec.sample_count, spec.max_fused), (0, 0, default.max_fused));
        assert_eq!(
            (spec.flavor, spec.priority, spec.timeout, stream),
            (default.flavor, default.priority, None, false)
        );
        for (seed, want) in [
            ("0", 0),
            ("7", 7),
            ("9007199254740992", 1 << 53),
            ("18446744073709551615", u64::MAX),
            ("1e3", 1000),
        ] {
            let (spec, _) = decode(&format!(r#","seed":{seed}"#)).unwrap();
            assert_eq!(spec.seed, want, "{seed}");
        }
        assert!(decode(r#","seed":18446744073709551616e1"#).unwrap_err().contains("'seed'"));
        let (spec, stream) = decode(r#","stream":true,"sample_count":3,"timeout_ms":9"#).unwrap();
        assert_eq!(
            (stream, spec.sample_count, spec.timeout),
            (true, 3, Some(Duration::from_millis(9)))
        );
    }

    /// Submit `fields` with `text` as the circuit and wait for the job.
    fn run_line(service: &Service, text: &str, fields: &str) -> JobId {
        let circuit = serde_json::to_string(&Value::String(text.to_string())).unwrap();
        let line = format!(r#"{{"verb":"submit","circuit":{circuit}{fields}}}"#);
        let resp = submit_line(service, &line);
        let id = JobId(resp.get("id").and_then(Value::as_u64).expect("accepted"));
        let status = service.wait(id, std::time::Duration::from_secs(60)).unwrap();
        assert_eq!(status.state, JobState::Done, "{:?}", status.error);
        id
    }

    /// A submit without `max_fused` plans at greedy `-f 3`; one that asks
    /// for `-f 2` runs, samples and reports exactly as an in-process
    /// `-f 2` plan does; the two budgets are two result-cache entries.
    #[test]
    fn default_budget_is_f3_and_an_explicit_f2_is_the_in_process_run() {
        use qsim_backends::{Flavor, PlanOptions, RunOptions, RunReport, SimBackend};
        use qsim_core::types::Precision;

        let circuit = qsim_circuit::generate_rqc(&qsim_circuit::RqcOptions::for_qubits(9, 6, 4));
        let text = qsim_circuit::parser::write_circuit(&circuit);
        let service = small_service();
        let default = run_line(&service, &text, r#","seed":5,"sample_count":40"#);
        let result = submit_line(&service, &format!(r#"{{"verb":"result","id":{}}}"#, default.0));
        assert_eq!(result["report"]["max_fused_qubits"].as_u64(), Some(3), "{result:?}");
        assert_eq!(result["report"]["fusion"]["strategy"].as_str(), Some("greedy"));

        let explicit = run_line(&service, &text, r#","seed":5,"sample_count":40,"max_fused":2"#);
        let got = service.report(explicit).unwrap();
        let cpu = SimBackend::new(Flavor::CpuAvx);
        let opts =
            PlanOptions { strategy: qsim_fusion::FusionStrategy::Greedy, max_fused_qubits: 2 };
        let plan = cpu.plan_circuit(&circuit, &opts, Precision::Single);
        let (_, want) =
            cpu.run_plan::<f32>(&plan, &RunOptions { seed: 5, sample_count: 40 }).unwrap();
        assert_eq!(got.samples, want.samples);
        // Host clocks and the pooled buffer aside, the reports are equal.
        let want = RunReport {
            wall_seconds: got.wall_seconds,
            setup_seconds: got.setup_seconds,
            buffer_reused: got.buffer_reused,
            ..want
        };
        assert_eq!(serde_json::to_string(&got.to_json()), serde_json::to_string(&want.to_json()));
        assert_ne!(service.report(default).unwrap().fused_gates, got.fused_gates);
        let cache = service.metrics().result_cache;
        assert_eq!((cache.entries, cache.hits), (2, 0), "{cache:?}");
    }

    /// A report is a function of its plan and spec: one spec run in
    /// process on a fresh backend, on a service worker after jobs of other
    /// shapes, as a result-cache hit and on a second service reports the
    /// same, host clocks and the pooled buffer aside.
    #[test]
    fn a_report_does_not_depend_on_what_its_worker_ran_before() {
        use qsim_backends::{Flavor, PlanOptions, RunOptions, RunReport, SimBackend};
        use qsim_circuit::parser::write_circuit;
        use qsim_circuit::{generate_rqc, RqcOptions};

        let json = |report: RunReport| {
            let report =
                RunReport { wall_seconds: 0.0, setup_seconds: 0.0, buffer_reused: false, ..report };
            serde_json::to_string(&report.to_json()).unwrap()
        };
        let circuit = generate_rqc(&RqcOptions::for_qubits(9, 6, 4));
        let (text, fields) = (write_circuit(&circuit), r#","seed":5,"sample_count":40"#);
        let cpu = SimBackend::new(Flavor::CpuAvx);
        let opts =
            PlanOptions { strategy: qsim_fusion::FusionStrategy::Greedy, max_fused_qubits: 3 };
        let plan = cpu.plan_circuit(&circuit, &opts, qsim_core::types::Precision::Single);
        let run = RunOptions { seed: 5, sample_count: 40 };
        let want = json(cpu.run_plan::<f32>(&plan, &run).unwrap().1);

        let busy = Service::start(ServiceConfig {
            workers: 1,
            memory_budget_bytes: 1 << 20,
            ..ServiceConfig::default()
        });
        for (n, seed) in [(7, 1), (10, 2), (8, 3)] {
            let other = write_circuit(&generate_rqc(&RqcOptions::for_qubits(n, 5, seed)));
            run_line(&busy, &other, r#","sample_count":4"#);
        }
        let after = run_line(&busy, &text, fields);
        assert_eq!(json(busy.report(after).unwrap()), want, "on a worker after other jobs");
        let hit = run_line(&busy, &text, fields);
        assert_eq!(busy.metrics().result_cache.hits, 1);
        assert_eq!(json(busy.report(hit).unwrap()), want, "as a result-cache hit");
        let second = small_service();
        let first = run_line(&second, &text, fields);
        assert_eq!(json(second.report(first).unwrap()), want, "on a second service");
    }

    /// Seeds a float cannot tell apart are two jobs with two results.
    #[test]
    fn seeds_past_2_pow_53_are_distinct_jobs() {
        let service = small_service();
        let text = bell_text();
        let a = run_line(&service, &text, r#","seed":9007199254740992,"sample_count":8"#);
        let b = run_line(&service, &text, r#","seed":9007199254740993,"sample_count":8"#);
        assert_ne!(a, b);
        let cache = service.metrics().result_cache;
        assert_eq!((cache.entries, cache.insertions, cache.hits), (2, 2, 0), "{cache:?}");
    }

    /// A non-finite gate parameter used to parse, run to an all-NaN
    /// report and be result-cached under the circuit's key.
    #[test]
    fn non_finite_parameter_is_refused_at_the_door_and_never_cached() {
        let service = small_service();
        for tok in ["nan", "inf"] {
            let req = serde_json::to_string(&json!({
                "verb": "submit",
                "circuit": (format!("2\n0 h 0\n1 rz 1 {tok}\n2 cz 0 1\n")),
                "sample_count": 4,
            }))
            .unwrap();
            // Twice: a cached NaN report would answer the second one `ok`.
            for _ in 0..2 {
                let resp = submit_line(&service, &req);
                assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false), "{resp:?}");
                let error = resp.get("error").and_then(Value::as_str).unwrap();
                assert!(error.contains("circuit parse error: line 3"), "{error}");
                assert!(error.contains(&format!("'{tok}' is not finite")), "{error}");
            }
        }
        let m = service.metrics();
        assert_eq!((m.submitted, m.result_cache.insertions), (0, 0), "{m:?}");
        service.shutdown();
    }

    #[test]
    fn oversized_submit_reports_too_large() {
        let service = small_service(); // 1 MiB budget
        let circuit = qsim_circuit::parser::write_circuit(&qsim_circuit::library::ghz(24));
        let req = serde_json::to_string(&json!({
            "verb": "submit", "circuit": (circuit),
        }))
        .unwrap();
        let resp = submit_line(&service, &req);
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(resp.get("too_large").and_then(Value::as_bool), Some(true), "{resp:?}");
    }

    /// The three admission refusals, byte for byte as they go on the wire
    /// (the `error` text is the error's own `Display`).
    #[test]
    fn admission_refusals_share_one_payload_shape() {
        let submit = |service: &Service, circuit: &qsim_circuit::Circuit, precision: &str| {
            let text = qsim_circuit::parser::write_circuit(circuit);
            let req = json!({ "verb": "submit", "circuit": (text), "precision": (precision) });
            let resp = submit_line(service, &serde_json::to_string(&req).unwrap());
            let error = resp.get("error").and_then(Value::as_str).unwrap_or_default().to_string();
            (serde_json::to_string(&resp).unwrap(), error, resp.get("id").and_then(Value::as_u64))
        };
        let service = small_service(); // 1 MiB budget

        let (line, error, _) = submit(&service, &qsim_circuit::library::ghz(24), "single");
        assert!(error.starts_with("job needs 134217728 B of state"), "{error}");
        assert_eq!(line, format!(r#"{{"ok":false,"error":"{error}","too_large":true}}"#));

        // A 16-qubit double-precision state is the whole budget; while it
        // runs, nothing else fits.
        let holder = qsim_circuit::library::random_dense(16, 4000, 7);
        let (line, _, held) = submit(&service, &holder, "double");
        let held = held.unwrap_or_else(|| panic!("holder must be admitted: {line}"));
        let (line, error, _) = submit(&service, &qsim_circuit::library::bell(), "single");
        assert!(error.starts_with("budget exhausted"), "{error}");
        assert_eq!(
            line,
            format!(r#"{{"ok":false,"error":"{error}","rejected":true,"retry_after_ms":250}}"#)
        );
        service.cancel(JobId(held));

        let starved = Service::start(ServiceConfig {
            bandwidth_budget_bps: 1, // backlog cap 64 B/s
            ..ServiceConfig::default()
        });
        let (line, error, _) = submit(&starved, &qsim_circuit::library::ghz(16), "single");
        assert!(error.starts_with("bandwidth backlog saturated"), "{error}");
        assert_eq!(
            line,
            format!(
                r#"{{"ok":false,"error":"{error}","rejected":true,"saturated":true,"retry_after_ms":1000}}"#
            )
        );
    }

    #[test]
    fn previously_too_large_job_routes_to_sharded_backend() {
        // 8 MiB of state against a 1 MiB budget: formerly a `too_large`
        // rejection, now routed across 8 modeled devices (1 MiB shards).
        let service = small_service();
        let circuit = qsim_circuit::parser::write_circuit(&qsim_circuit::library::ghz(20));
        let req = serde_json::to_string(&json!({
            "verb": "submit", "circuit": (circuit), "backend": "hip",
        }))
        .unwrap();
        let resp = submit_line(&service, &req);
        assert_eq!(resp.get("ok").and_then(Value::as_bool), Some(true), "{resp:?}");
        let id = resp.get("id").and_then(Value::as_u64).unwrap();

        service.wait(JobId(id), std::time::Duration::from_secs(60));
        let status = submit_line(&service, &format!(r#"{{"verb":"status","id":{id}}}"#));
        assert_eq!(status.get("state").and_then(Value::as_str), Some("done"), "{status:?}");
        assert_eq!(status.get("devices").and_then(Value::as_u64), Some(8), "{status:?}");

        let metrics = submit_line(&service, r#"{"verb":"metrics"}"#);
        let sharded = metrics.get("metrics").and_then(|m| m.get("sharded")).unwrap();
        assert_eq!(sharded.get("routed").and_then(Value::as_u64), Some(1), "{sharded:?}");
        assert_eq!(sharded.get("completed").and_then(Value::as_u64), Some(1), "{sharded:?}");
        assert!(sharded.get("exchanged_bytes").and_then(Value::as_u64).unwrap() > 0, "{sharded:?}");
        assert!(
            sharded.get("exchange_seconds").and_then(Value::as_f64).unwrap() > 0.0,
            "{sharded:?}"
        );

        let result = submit_line(&service, &format!(r#"{{"verb":"result","id":{id}}}"#));
        let report = result.get("report").unwrap();
        assert_eq!(report.get("qubits").and_then(Value::as_u64), Some(20));
        let device = report.get("device").and_then(Value::as_str).unwrap();
        assert!(device.starts_with("8x "), "sharded device string: {device}");
    }

    #[test]
    fn cancel_and_result_of_unfinished_job() {
        let service = small_service();
        let req = serde_json::to_string(&json!({
            "verb": "submit",
            "circuit": (bell_text()),
            // Expired before any worker can start it.
            "timeout_ms": 0,
            "priority": "batch",
        }))
        .unwrap();
        let resp = submit_line(&service, &req);
        let id = resp.get("id").and_then(Value::as_u64).unwrap();
        let status = service.wait(JobId(id), std::time::Duration::from_secs(10)).unwrap();
        assert_eq!(status.state, JobState::TimedOut);
        let result = submit_line(&service, &format!(r#"{{"verb":"result","id":{id}}}"#));
        assert_eq!(result.get("ok").and_then(Value::as_bool), Some(false));
        assert_eq!(result.get("state").and_then(Value::as_str), Some("timed_out"));
    }

    #[test]
    fn metrics_and_shutdown_verbs() {
        let service = small_service();
        let metrics = handle_line(&service, r#"{"verb":"metrics"}"#);
        assert!(!metrics.shutdown);
        let m = metrics.response.get("metrics").unwrap();
        assert_eq!(m.get("accepting").and_then(Value::as_bool), Some(true));
        assert!(m.get("buffer_pool").is_some());

        let bye = handle_line(&service, r#"{"verb":"shutdown"}"#);
        assert!(bye.shutdown);
        assert_eq!(bye.response.get("ok").and_then(Value::as_bool), Some(true));
    }
}
