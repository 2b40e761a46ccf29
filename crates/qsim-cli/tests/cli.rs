//! End-to-end tests of the command-line tools, driving the real binaries
//! the way a user would.

use std::path::PathBuf;
use std::process::{Command, Output};

fn qsim_base() -> Command {
    Command::new(env!("CARGO_BIN_EXE_qsim_base"))
}

fn rqc_gen() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rqc_gen"))
}

fn qsim_amplitudes() -> Command {
    Command::new(env!("CARGO_BIN_EXE_qsim_amplitudes"))
}

fn tmpfile(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("qsim_cli_test_{}_{name}", std::process::id()));
    p
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The bell circuit file, written once: the tests run on parallel threads
/// and each hands the path to a child process, which must never read it
/// while another test is rewriting it.
fn write_bell() -> PathBuf {
    static BELL: std::sync::OnceLock<PathBuf> = std::sync::OnceLock::new();
    BELL.get_or_init(|| {
        let path = tmpfile("bell");
        std::fs::write(&path, "2\n0 h 0\n1 cnot 0 1\n").expect("write circuit");
        path
    })
    .clone()
}

#[test]
fn qsim_base_runs_bell_circuit() {
    let circuit = write_bell();
    let out = qsim_base()
        .args(["-c", circuit.to_str().unwrap(), "-b", "hip", "-f", "2"])
        .output()
        .expect("run qsim_base");
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("backend:            hip"));
    assert!(text.contains("+0.70710677"), "amplitudes missing:\n{text}");
    assert!(text.contains("simulated time"));
}

#[test]
fn qsim_base_estimate_mode_handles_30_qubits() {
    // Generate the paper's circuit, then estimate without allocating 8 GiB.
    let circuit = tmpfile("q30");
    let gen = rqc_gen()
        .args(["-q", "30", "-d", "14", "-s", "2023", "-o", circuit.to_str().unwrap()])
        .output()
        .expect("run rqc_gen");
    assert!(gen.status.success(), "stderr: {}", stderr(&gen));

    let out = qsim_base()
        .args(["-c", circuit.to_str().unwrap(), "-b", "hip", "-f", "4", "-e", "-v"])
        .output()
        .expect("run qsim_base");
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("qubits:             30"));
    assert!(text.contains("ApplyGateL_Kernel"), "kernel stats expected:\n{text}");
    assert!(text.contains("state memory:       8.000 GiB"));
}

#[test]
fn qsim_base_writes_perfetto_trace() {
    let circuit = write_bell();
    let trace = tmpfile("trace.json");
    let out = qsim_base()
        .args(["-c", circuit.to_str().unwrap(), "-b", "cuda", "-t", trace.to_str().unwrap()])
        .output()
        .expect("run qsim_base");
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let json = std::fs::read_to_string(&trace).expect("trace written");
    let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    assert!(!v["traceEvents"].as_array().unwrap().is_empty());
}

#[test]
fn qsim_base_rejects_bad_input() {
    let out = qsim_base().args(["-c", "/nonexistent/file"]).output().expect("run");
    assert!(!out.status.success());
    assert!(stderr(&out).contains("cannot read"));

    let bad = tmpfile("bad");
    std::fs::write(&bad, "2\n0 frobnicate 0\n").expect("write");
    let out = qsim_base().args(["-c", bad.to_str().unwrap()]).output().expect("run");
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown gate"));

    let out = qsim_base().args(["-x"]).output().expect("run");
    assert!(!out.status.success());
}

#[test]
fn qsim_base_samples_bitstrings() {
    let circuit = write_bell();
    let out = qsim_base()
        .args(["-c", circuit.to_str().unwrap(), "-b", "hip", "-S", "50", "-s", "3"])
        .output()
        .expect("run qsim_base");
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("sampled bitstrings (first 20 of 50)"), "{text}");
    // Bell state: every sampled line is 00 or 11.
    let lines: Vec<&str> = text
        .lines()
        .skip_while(|l| !l.contains("sampled bitstrings"))
        .skip(1)
        .take_while(|l| l.starts_with("  "))
        .collect();
    assert!(!lines.is_empty());
    for l in &lines {
        let bits = l.trim();
        assert!(bits == "00" || bits == "11", "unexpected sample {bits}");
    }
}

#[test]
fn qsim_base_help() {
    let out = qsim_base().arg("-h").output().expect("run");
    assert!(out.status.success());
    assert!(stdout(&out).contains("USAGE"));
}

#[test]
fn rqc_gen_roundtrips_through_qsim_base() {
    let circuit = tmpfile("q8");
    let gen = rqc_gen()
        .args(["-q", "8", "-d", "6", "-s", "1", "-o", circuit.to_str().unwrap()])
        .output()
        .expect("run rqc_gen");
    assert!(gen.status.success());
    let out = qsim_base()
        .args(["-c", circuit.to_str().unwrap(), "-b", "cpu", "-f", "4", "-n", "2"])
        .output()
        .expect("run qsim_base");
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("8 qubits"));
}

#[test]
fn qsim_amplitudes_queries_bitstrings() {
    let circuit = write_bell();
    let queries = tmpfile("queries");
    std::fs::write(&queries, "# bell outputs\n00\n11\n01\n").expect("write queries");
    let out = qsim_amplitudes()
        .args([
            "-c",
            circuit.to_str().unwrap(),
            "-i",
            queries.to_str().unwrap(),
            "-b",
            "custatevec",
        ])
        .output()
        .expect("run qsim_amplitudes");
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("00  +0.70710677"), "{text}");
    assert!(text.contains("11  +0.70710677"), "{text}");
    assert!(text.contains("01  +0.00000000"), "{text}");
}

/// Path to a circuit file shipped in the repository's `circuits/`.
fn repo_circuit(name: &str) -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop(); // crates/
    p.pop(); // repo root
    p.push("circuits");
    p.push(name);
    p
}

/// A `--devices` run shows its exchanges: the sharding section under
/// `-v`, and under `"report"."sharding"` in `--json`.
#[test]
fn qsim_base_reports_the_sharding_section() {
    let circuit = repo_circuit("circuit_q30");
    let args = ["-c", circuit.to_str().unwrap(), "-b", "hip", "-f", "4", "-e", "--devices", "4"];
    let out = qsim_base().args(args).arg("-v").output().expect("run qsim_base");
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("sharding:           4 devices x 2^28 amps:"), "{text}");
    assert!(text.contains("GiB exchanged per device") && text.contains("s of link time"));

    let out = qsim_base().args(args).arg("--json").output().expect("run qsim_base");
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let v: serde_json::Value = serde_json::from_str(&stdout(&out)).expect("valid JSON");
    let sharding = &v["report"]["sharding"];
    assert_eq!(sharding["devices"], serde_json::json!(4));
    assert!(sharding["swaps"].as_u64().unwrap() > 0, "{sharding:?}");
    assert!(sharding["swap_epochs"].as_u64().unwrap() > 0);
    assert!(sharding["exchanged_bytes_per_device"].as_u64().unwrap() > 0);
    assert!(sharding["exchange_seconds"].as_f64().unwrap() > 0.0);
}

#[test]
fn analyze_passes_bell_circuit() {
    let circuit = write_bell();
    let out = qsim_base().args(["analyze", "-c", circuit.to_str().unwrap()]).output().expect("run");
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("no findings"), "{text}");
    assert!(text.contains("result: pass"), "{text}");
}

#[test]
fn analyze_passes_repo_circuits() {
    for name in ["bell", "circuit_q24", "circuit_q30"] {
        let path = repo_circuit(name);
        let out = qsim_base()
            .args(["analyze", "-c", path.to_str().unwrap(), "-f", "4"])
            .output()
            .expect("run");
        assert!(out.status.success(), "{name} failed analysis: {}", stdout(&out));
        let text = stdout(&out);
        assert!(
            text.contains("0 errors, 0 warnings") || text.contains("no findings"),
            "{name}:\n{text}"
        );
    }
}

#[test]
fn analyze_json_output_parses() {
    let circuit = write_bell();
    let out = qsim_base()
        .args(["analyze", "-c", circuit.to_str().unwrap(), "--json"])
        .output()
        .expect("run");
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let v: serde_json::Value = serde_json::from_str(&stdout(&out)).expect("valid JSON");
    assert_eq!(v["qubits"], serde_json::json!(2));
    assert_eq!(v["passed"], serde_json::json!(true));
    assert_eq!(v["analysis"]["errors"], serde_json::json!(0));
    assert!(v["analysis"]["findings"].as_array().unwrap().is_empty());
}

#[test]
fn analyze_flags_out_of_range_qubit() {
    let bad = tmpfile("analyze_bad");
    std::fs::write(&bad, "2\n0 h 5\n").expect("write");
    let out =
        qsim_base().args(["analyze", "-c", bad.to_str().unwrap(), "--json"]).output().expect("run");
    assert!(!out.status.success(), "out-of-range qubit must fail analysis");
    let v: serde_json::Value = serde_json::from_str(&stdout(&out)).expect("valid JSON");
    assert_eq!(v["passed"], serde_json::json!(false));
    let findings = v["analysis"]["findings"].as_array().unwrap();
    assert!(
        findings.iter().any(|f| f["code"] == serde_json::json!("QC0002")),
        "expected QC0002 in {findings:?}"
    );
}

#[test]
fn analyze_deny_warnings_policy() {
    let id = tmpfile("analyze_id");
    std::fs::write(&id, "2\n0 id 0\n1 h 0\n").expect("write");
    // Identity gate is a warning: pass by default...
    let out = qsim_base().args(["analyze", "-c", id.to_str().unwrap()]).output().expect("run");
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("QA0103"), "{}", stdout(&out));
    // ...fail under --deny-warnings.
    let out = qsim_base()
        .args(["analyze", "-c", id.to_str().unwrap(), "--deny-warnings"])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(stdout(&out).contains("result: fail"), "{}", stdout(&out));
}

#[test]
fn max_fused_out_of_range_is_clean_error() {
    let circuit = write_bell();
    for f in ["0", "9"] {
        for prefix in [vec![], vec!["analyze"]] {
            let mut args = prefix.clone();
            args.extend(["-c", circuit.to_str().unwrap(), "-f", f]);
            let out = qsim_base().args(&args).output().expect("run");
            assert!(!out.status.success());
            assert!(stderr(&out).contains("-f expects 1..=6"), "stderr: {}", stderr(&out));
        }
    }
}

#[test]
fn qsim_amplitudes_max_fused_out_of_range_is_clean_error() {
    let circuit = write_bell();
    let queries = tmpfile("range_queries");
    std::fs::write(&queries, "00\n").expect("write queries");
    for f in ["0", "9"] {
        let out = qsim_amplitudes()
            .args(["-c", circuit.to_str().unwrap(), "-i", queries.to_str().unwrap(), "-f", f])
            .output()
            .expect("run");
        assert!(!out.status.success());
        assert!(stderr(&out).contains("-f expects 1..=6"), "stderr: {}", stderr(&out));
    }
}

#[test]
fn fusion_strategy_flag_runs_and_reports() {
    let circuit = tmpfile("q10_fusion");
    let gen = rqc_gen()
        .args(["-q", "10", "-d", "8", "-s", "7", "-o", circuit.to_str().unwrap()])
        .output()
        .expect("run rqc_gen");
    assert!(gen.status.success(), "stderr: {}", stderr(&gen));
    for strategy in ["greedy", "cost", "auto"] {
        let out = qsim_base()
            .args(["-c", circuit.to_str().unwrap(), "-b", "hip", "-f", "4", "--fusion", strategy])
            .output()
            .expect("run qsim_base");
        assert!(out.status.success(), "{strategy}: {}", stderr(&out));
        let text = stdout(&out);
        assert!(text.contains(&format!("via {strategy}")), "{strategy}:\n{text}");
        assert!(text.contains(&format!("fusion strategy:    {strategy}")), "{strategy}:\n{text}");
    }
}

#[test]
fn unknown_fusion_strategy_is_clean_error() {
    let circuit = write_bell();
    for prefix in [vec![], vec!["analyze"]] {
        let mut args = prefix.clone();
        args.extend(["-c", circuit.to_str().unwrap(), "--fusion", "frobnicate"]);
        let out = qsim_base().args(&args).output().expect("run");
        assert!(!out.status.success());
        assert!(
            stderr(&out).contains("unknown fusion strategy 'frobnicate'"),
            "stderr: {}",
            stderr(&out)
        );
    }
}

#[test]
fn json_report_parses_and_carries_fusion_fields() {
    let circuit = tmpfile("q9_json");
    let gen = rqc_gen()
        .args(["-q", "9", "-d", "6", "-s", "11", "-o", circuit.to_str().unwrap()])
        .output()
        .expect("run rqc_gen");
    assert!(gen.status.success(), "stderr: {}", stderr(&gen));
    let out = qsim_base()
        .args(["-c", circuit.to_str().unwrap(), "-b", "hip", "--fusion", "auto", "--json"])
        .output()
        .expect("run qsim_base");
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let v: serde_json::Value = serde_json::from_str(&stdout(&out)).expect("valid JSON");
    assert_eq!(v["circuit"]["qubits"], serde_json::json!(9));
    let report = &v["report"];
    assert_eq!(report["backend"], serde_json::json!("hip"));
    assert_eq!(report["fusion"]["strategy"], serde_json::json!("auto"));
    assert!(report["fusion"]["predicted_cost_seconds"].as_f64().unwrap() > 0.0);
    assert!(report["fusion"]["compression"].as_f64().unwrap() >= 1.0);
    let hist = report["fusion"]["fused_by_qubit_count"].as_array().unwrap();
    assert_eq!(hist.len(), 7);
    assert!(report["simulated_seconds"].as_f64().unwrap() > 0.0);
    assert!(!report["gate_classes"].as_array().unwrap().is_empty());
    // The amplitudes array is present on a real (non-estimate) run.
    assert_eq!(v["amplitudes"].as_array().unwrap().len(), 8);
}

#[test]
fn analyze_accepts_fusion_strategy_and_backend() {
    let circuit = tmpfile("q8_analyze_fusion");
    let gen = rqc_gen()
        .args(["-q", "8", "-d", "6", "-s", "3", "-o", circuit.to_str().unwrap()])
        .output()
        .expect("run rqc_gen");
    assert!(gen.status.success(), "stderr: {}", stderr(&gen));
    for (strategy, backend) in [("cost", "hip"), ("auto", "cuda"), ("greedy", "cpu")] {
        let out = qsim_base()
            .args([
                "analyze",
                "-c",
                circuit.to_str().unwrap(),
                "-f",
                "4",
                "--fusion",
                strategy,
                "-b",
                backend,
                "--json",
            ])
            .output()
            .expect("run");
        assert!(out.status.success(), "{strategy}/{backend}: {}", stderr(&out));
        let v: serde_json::Value = serde_json::from_str(&stdout(&out)).expect("valid JSON");
        assert_eq!(v["fusion_strategy"], serde_json::json!(strategy));
        assert_eq!(v["backend"], serde_json::json!(backend));
        assert_eq!(v["passed"], serde_json::json!(true));
    }
}

#[test]
fn rqc_gen_rejects_bad_qubit_count() {
    for q in ["1", "99"] {
        let out = rqc_gen().args(["-q", q]).output().expect("run");
        assert!(!out.status.success());
        assert!(stderr(&out).contains("-q expects 2..=36"), "stderr: {}", stderr(&out));
    }
}

#[test]
fn qsim_amplitudes_validates_bit_width() {
    let circuit = write_bell();
    let queries = tmpfile("badbits");
    std::fs::write(&queries, "000\n").expect("write");
    let out = qsim_amplitudes()
        .args(["-c", circuit.to_str().unwrap(), "-i", queries.to_str().unwrap()])
        .output()
        .expect("run");
    assert!(!out.status.success());
    assert!(stderr(&out).contains("has 3 bits"));
}

/// Run `qsim_serve` with flags it must refuse and return its stderr. A
/// refused flag exits at once with the usage status; an accepted one
/// starts a service that listens until told to stop, so the wait is
/// bounded and a live service is killed and reported.
fn qsim_serve_refuses(args: &[&str]) -> String {
    use std::io::Read;
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    let mut child = Command::new(env!("CARGO_BIN_EXE_qsim_serve"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("run qsim_serve");
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll qsim_serve") {
            break status;
        }
        if Instant::now() > deadline {
            child.kill().expect("kill qsim_serve");
            child.wait().expect("reap qsim_serve");
            panic!("qsim_serve {args:?} started a service instead of refusing the flag");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    assert_eq!(status.code(), Some(2), "qsim_serve {args:?}");
    let mut text = String::new();
    child.stderr.take().expect("piped stderr").read_to_string(&mut text).expect("read stderr");
    text
}

#[test]
fn qsim_serve_size_flags_reject_overflow() {
    // 2^34 GiB and 2^44 MiB are 2^64 bytes: one past what a u64 holds. A
    // wrapping shift would start the service with a 0-byte budget.
    for (flag, count) in [
        ("--budget-gib", "17179869184"),
        ("--bandwidth-gib", "17179869184"),
        ("--cache-budget", "17592186044416"),
        ("--plan-cache-budget", "17592186044416"),
    ] {
        let text = qsim_serve_refuses(&[flag, count]);
        assert!(text.contains(&format!("bad {flag}")), "{flag}: {text}");
    }
}

#[test]
fn qsim_serve_needs_an_io_thread() {
    let text = qsim_serve_refuses(&["--io-threads", "0"]);
    assert!(text.contains("--io-threads must be at least 1"), "{text}");
}
