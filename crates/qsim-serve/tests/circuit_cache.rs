//! The circuit table end to end: a submitted qsim text is parsed,
//! validated and hashed once per service, and answers exactly what
//! `parse_circuit` would — circuit or error — on every submission.
//!
//! That an entry planted under another text's key is never returned (the
//! key is only a hash; every hit is checked against the stored bytes) is
//! a unit test beside the table, `circuits::tests`, because planting
//! needs its private surface.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use qsim_cache::CacheStats;
use qsim_circuit::circuit::Circuit;
use qsim_circuit::gates::GateKind;
use qsim_circuit::library;
use qsim_circuit::parser::{parse_circuit, write_circuit};
use qsim_serve::protocol::handle_line;
use qsim_serve::{JobId, JobState, MuxServer, Service, ServiceConfig};
use serde_json::{json, Value};

const WAIT: Duration = Duration::from_secs(120);

fn submit_line(text: &str, seed: u64) -> String {
    let request = json!({
        "verb": "submit", "circuit": (text), "seed": (seed), "sample_count": 24, "stream": true,
    });
    serde_json::to_string(&request).unwrap()
}

/// Everything a mux server writes back for each line: the ack, then the
/// sample frames up to the one marked last.
fn answers(service: Arc<Service>, lines: &[String]) -> Vec<Vec<String>> {
    let server = MuxServer::bind("127.0.0.1:0", service, 1).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.serve());
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut read_line = || {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    };
    let all = lines
        .iter()
        .map(|line| {
            stream.write_all(format!("{line}\n").as_bytes()).unwrap();
            let mut got = vec![read_line()];
            loop {
                let frame = read_line();
                let last = frame.contains("\"last\":true");
                got.push(frame);
                if last {
                    break got;
                }
            }
        })
        .collect();
    handle.shutdown();
    thread.join().unwrap().unwrap();
    all
}

/// An answer with its job ids zeroed: the k-th submission to one service
/// and the first to a fresh one differ in nothing else.
fn without_ids(answer: &[String]) -> Vec<String> {
    answer
        .iter()
        .map(|line| {
            let Value::Object(fields) = serde_json::from_str(line).unwrap() else {
                panic!("not an object: {line}")
            };
            let fields = fields
                .into_iter()
                .map(|(k, v)| if k == "id" { (k, json!(0)) } else { (k, v) })
                .collect();
            serde_json::to_string(&Value::Object(fields)).unwrap()
        })
        .collect()
}

fn small_service() -> Service {
    Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() })
}

/// One text submitted N times is parsed once, and every answer is a
/// fresh service's answer to the same line.
#[test]
fn a_resubmitted_text_is_parsed_once_with_unchanged_answers() {
    const N: u64 = 5;
    let text = write_circuit(&library::qft(6));
    // Two seeds: the second run of each seed is a result-cache hit, the
    // first runs on a worker — both read the one interned circuit.
    let lines: Vec<String> = (0..N).map(|i| submit_line(&text, i % 2)).collect();
    let service = Arc::new(small_service());
    let got = answers(service.clone(), &lines);
    let table = service.metrics().circuit_cache;
    assert_eq!((table.misses, table.hits, table.entries), (1, N - 1, 1), "{table:?}");
    for (line, answer) in lines.iter().zip(&got) {
        let fresh = answers(Arc::new(small_service()), std::slice::from_ref(line));
        assert_eq!(without_ids(answer), without_ids(&fresh[0]), "{line}");
        assert!(answer.len() >= 2 && answer[0].contains("\"ok\":true"), "{answer:?}");
    }
}

/// Texts that differ only in whitespace or a comment are two table
/// entries with one content hash: the second is still a result-cache hit.
#[test]
fn texts_equal_up_to_whitespace_share_a_result() {
    let service = small_service();
    let text = write_circuit(&library::ghz(7));
    let spaced = format!("# the same circuit\n{}", text.replace(' ', "  \t"));
    let (a, b) = (service.circuit(&text).unwrap(), service.circuit(&spaced).unwrap());
    assert_eq!(a.content_hash(), b.content_hash());
    for line in [submit_line(&text, 3), submit_line(&spaced, 3)] {
        let response = handle_line(&service, &line).response;
        let id = response.get("id").and_then(Value::as_u64).expect("accepted");
        assert_eq!(service.wait(JobId(id), WAIT).unwrap().state, JobState::Done);
    }
    let m = service.metrics();
    assert_eq!((m.circuit_cache.entries, m.circuit_cache.hits), (2, 2), "{:?}", m.circuit_cache);
    assert_eq!(m.result_cache.hits, 1, "{:?}", m.result_cache);
}

/// A malformed text and one with a non-finite parameter get the same
/// error on every resubmission and are never stored.
#[test]
fn refused_texts_are_refused_every_time_and_never_stored() {
    let service = small_service();
    for text in ["2\n0 h 0\n0 h 0\n", "2\n0 h 0\n1 rz 1 nan\n", "3\n0 cz 0 7\n", "two\n"] {
        let want = format!("circuit parse error: {}", parse_circuit(text).unwrap_err());
        for _ in 0..3 {
            let response = handle_line(&service, &submit_line(text, 0)).response;
            assert_eq!(response.get("error").and_then(Value::as_str), Some(want.as_str()));
        }
    }
    let m = service.metrics();
    assert_eq!((m.circuit_cache.insertions, m.circuit_cache.entries), (0, 0));
    assert_eq!((m.circuit_cache.misses, m.circuit_cache.hits, m.submitted), (12, 0, 0));
}

/// A one-qubit chain of `len` gates: a long text whose plan is one small
/// fused gate, so a budget that holds one table entry also holds a plan.
fn chain(len: usize, angle: f64) -> Circuit {
    let mut c = Circuit::new(1);
    for t in 0..len {
        c.add(t, if t % 2 == 0 { GateKind::H } else { GateKind::Rz(angle) }, &[0]);
    }
    c
}

/// Submits `circuits` for three rounds to a one-worker service whose
/// budgets hold the larger of their table entries only, checks every
/// result against an unpressed service's and that the table evicts down
/// to one entry inside its budget, and returns the budget and the plan
/// cache's statistics.
fn under_a_one_entry_budget(circuits: &[Circuit]) -> (u64, CacheStats) {
    let texts: Vec<String> = circuits.iter().map(write_circuit).collect();
    let probe = small_service();
    let sizes: Vec<u64> = texts
        .iter()
        .map(|text| {
            let before = probe.metrics().circuit_cache.occupancy_bytes;
            probe.circuit(text).unwrap();
            probe.metrics().circuit_cache.occupancy_bytes - before
        })
        .collect();
    let budget = *sizes.iter().max().unwrap();
    assert!(budget < sizes.iter().sum::<u64>());
    let tight = Service::start(ServiceConfig {
        workers: 1,
        plan_cache_budget_bytes: budget,
        ..ServiceConfig::default()
    });
    let run = |service: &Service, line: &str| {
        let response = handle_line(service, line).response;
        let id = JobId(response.get("id").and_then(Value::as_u64).expect("accepted"));
        assert_eq!(service.wait(id, WAIT).unwrap().state, JobState::Done);
        service.report(id).unwrap().samples
    };
    for round in 0..3u64 {
        for text in &texts {
            let line = submit_line(text, round);
            assert_eq!(run(&tight, &line), run(&probe, &line), "round {round}");
        }
    }
    let table = tight.metrics().circuit_cache;
    assert!(table.evictions > 0 && table.entries == 1, "{table:?}");
    assert!(table.occupancy_bytes <= budget && table.shed_inserts == 0, "{table:?}");
    (budget, tight.metrics().plan_cache)
}

/// Under a budget that holds one table entry of multi-qubit circuits, the
/// table evicts and every result stays what an unpressed service
/// computes. Each plan (its matrices and prepared gates) outweighs a
/// circuit text, so the plan cache sheds every insert and holds nothing.
#[test]
fn a_one_entry_budget_evicts_and_keeps_results_correct() {
    let (_, plans) = under_a_one_entry_budget(&[library::ghz(6), library::qft(5)]);
    assert_eq!(plans.entries, 0, "{plans:?}");
    assert!(plans.shed_inserts > 0, "{plans:?}");
}

/// With circuits whose plans fit the same budget, neither cache holds the
/// other out: each ends holding an entry, and neither sheds an insert it
/// has room for.
#[test]
fn a_one_entry_budget_keeps_a_plan_that_fits() {
    let (budget, plans) = under_a_one_entry_budget(&[chain(16, 0.3), chain(18, -1.1)]);
    assert!(plans.entries >= 1 && plans.occupancy_bytes <= budget, "{plans:?}");
    assert_eq!(plans.shed_inserts, 0, "{plans:?}");
}

/// A qsim text assembled from generated tokens (a time of `i` is the
/// line's index): mostly well-formed, with bad counts, times, gate
/// names, qubits and parameters mixed in.
fn text_of(header: &str, lines: &[(&str, &str, &str, &str, &str)], comment: bool) -> String {
    let mut text = format!("{header}\n");
    for (i, (time, gate, a, b, param)) in lines.iter().enumerate() {
        let time = if *time == "i" { i.to_string() } else { time.to_string() };
        let operands = match *gate {
            "h" | "t" | "x" => a.to_string(),
            "rz" | "rx" => format!("{a} {param}"),
            "fs" => format!("{a} {b} {param} {param}"),
            _ => format!("{a} {b}"),
        };
        text.push_str(&format!("{time} {gate} {operands}"));
        text.push_str(if comment { "  # note\n" } else { "\n" });
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The interned path answers exactly `parse_circuit`'s `Ok`
    /// circuit or error message, on the first submission and on the
    /// repeated one.
    #[test]
    fn interning_answers_what_parse_circuit_answers(
        header in prop::sample::select(vec!["4", "4", "4", "4", "4", "4", "0", "x", "99"]),
        lines in prop::collection::vec(
            (
                prop::sample::select(vec!["i", "i", "i", "i", "i", "i", "i", "0", "-1", "t"]),
                prop::sample::select(vec!["h", "t", "x", "rz", "rx", "cz", "cnot", "fs", "m", "nope"]),
                prop::sample::select(vec!["0", "1", "2", "3", "0", "1", "2", "3", "4", "q"]),
                prop::sample::select(vec!["0", "1", "2", "3", "1", "2", "3", "9"]),
                prop::sample::select(vec!["0.5", "-1e-3", "2", "0.25", "1", "nan", "inf", "z"]),
            ),
            0..6,
        ),
        comment in prop::sample::select(vec![false, true]),
    ) {
        let text = text_of(header, &lines, comment);
        let service = Service::start(ServiceConfig { workers: 1, ..ServiceConfig::default() });
        let want = parse_circuit(&text);
        for _ in 0..2 {
            match (&want, service.circuit(&text)) {
                (Ok(want), Ok(got)) => {
                    prop_assert_eq!(&*got, want);
                    prop_assert_eq!(got.content_hash(), want.content_hash());
                }
                (Err(want), Err(got)) => {
                    prop_assert_eq!(&got, want);
                    let response = handle_line(&service, &submit_line(&text, 0)).response;
                    let error = response.get("error").and_then(Value::as_str).unwrap_or_default();
                    prop_assert_eq!(error, format!("circuit parse error: {want}"));
                }
                (want, got) => prop_assert!(false, "{text:?}: want {want:?}, got {got:?}"),
            }
        }
        let table = service.metrics().circuit_cache;
        prop_assert_eq!(table.entries, u64::from(want.is_ok()));
    }
}
