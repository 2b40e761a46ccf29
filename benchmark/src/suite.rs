//! Running the whole suite: every workload in a child process of its
//! own (so `peak_rss_mb` belongs to one workload), and `agree`, which
//! runs the suite twice on the same build and holds the two sets of
//! runs against the benchmark's own bounds.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use serde_json::{json, Value};

use crate::env;
use crate::metrics::{self, MetricDef};
use crate::stats;
use crate::workloads::{self, DEFAULT_SEED, GATED, NAMES};

/// The result line of one child run.
#[derive(Debug, Clone)]
struct ChildResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

impl ChildResult {
    fn to_json(&self) -> Value {
        let metrics: Vec<(String, Value)> =
            self.metrics.iter().map(|(k, v)| (k.clone(), Value::Number(*v))).collect();
        json!({
            "correct": (self.correct),
            "attempted": (self.attempted),
            "failed": (self.failed),
            "metrics": (Value::Object(metrics)),
        })
    }
}

/// Run one workload in a child process and parse its result line.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    echo: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        print!("{stdout}");
    }
    if !output.status.success() {
        return Err(format!("{workload} (seed {seed}) exited with {}", output.status));
    }
    let line =
        stdout.lines().rev().find(|l| !l.trim().is_empty()).ok_or("child printed nothing")?;
    let doc: Value =
        serde_json::from_str(line).map_err(|e| format!("{workload}: result line: {e}"))?;
    let number =
        |key: &str| doc.get(key).and_then(Value::as_u64).ok_or(format!("result lacks {key}"));
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_object)
        .ok_or("result lacks metrics")?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
        .collect();
    Ok(ChildResult {
        correct: doc.get("correct").and_then(Value::as_bool).ok_or("result lacks correct")?,
        attempted: number("attempted")?,
        failed: number("failed")?,
        metrics,
    })
}

/// Every constant the numbers depend on, for the result file.
fn frozen_constants(seconds: f64) -> Value {
    json!({
        "run_seconds": (seconds),
        "setup_reps": (workloads::SETUP_REPS),
        "quiet_share": (stats::QUIET_SHARE),
        "rqc_qubits": (workloads::rqc::QUBITS),
        "rqc_cycles": (crate::inputs::RQC_CYCLES),
        "rqc_samples": (workloads::rqc::SAMPLES),
        "rqc_min_fidelity_f32": (workloads::rqc::MIN_FIDELITY_F32),
        "rqc_min_fidelity_f64": (workloads::rqc::MIN_FIDELITY_F64),
        "open_rate_per_s": (workloads::serve::OPEN_RATE_PER_S),
        "open_slo_ms": (workloads::serve::SLO_MS),
        "gang_wave_jobs": (workloads::serve::WAVE_JOBS),
        "model_gap_slack": (workloads::MODEL_GAP_SLACK),
    })
}

fn write_out(name: &str, doc: &Value) -> Result<(), String> {
    let dir = env::out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    let path = dir.join(name);
    let text = serde_json::to_string_pretty(doc).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// `run` without `--workload`: the whole suite, one child per workload,
/// and with `--traced` one more child per workload for the per-layer
/// metrics and the trace file.
pub fn run_all(seed: u64, seconds: f64, traced: bool) -> Result<(), String> {
    let mut results = Vec::new();
    let mut all_correct = true;
    for name in NAMES {
        let plain = run_child(name, seed, seconds, false, true)?;
        all_correct &= plain.correct;
        let mut entry = vec![
            ("workload".to_string(), Value::String(name.to_string())),
            ("end_to_end".to_string(), plain.to_json()),
        ];
        if traced {
            let layers = run_child(name, seed, seconds, true, true)?;
            all_correct &= layers.correct;
            if let Some(overhead) = layers.metrics.get("trace.run_overhead_frac") {
                println!("{name}: trace_run_overhead_frac {overhead:.4}");
            }
            entry.push(("per_layer".to_string(), layers.to_json()));
        }
        results.push(Value::Object(entry));
    }
    write_out(
        "results.json",
        &json!({
            "environment": (env::stamp()),
            "seed": (seed),
            "constants": (frozen_constants(seconds)),
            "results": (Value::Array(results)),
        }),
    )?;
    if all_correct {
        Ok(())
    } else {
        Err("a workload reported incorrect outputs".into())
    }
}

/// Workloads whose counts and modeled times are functions of the seed
/// alone (the serve workloads' counts depend on thread timing).
const DETERMINISTIC: [&str; 3] = ["rqc22-cpu-f32", "rqc22-hip-f64", "est30-grid"];

/// Whether a per-layer metric must repeat exactly on those workloads.
fn repeats_exactly(def: &MetricDef) -> bool {
    matches!(def.unit, "count" | "bytes" | "s_model" | "us_model" | "ratio")
        || def.name == "model_gap"
}

/// Seeds of each of the two sets of runs `agree` compares.
const AGREE_SEEDS: [u64; 2] = [DEFAULT_SEED, 7];

/// Distance between two medians as a share of the smaller one. It has no
/// direction: a second set that is much *faster* than the first is as
/// much a disagreement (warm-up, drift) as one that is slower.
fn relative_gap(a: f64, b: f64) -> f64 {
    let smaller = a.abs().min(b.abs());
    if smaller == 0.0 {
        if a == b {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (a - b).abs() / smaller
    }
}

/// One set of runs: every seed on every workload, plus one traced run
/// per workload on the first seed.
#[derive(Default)]
struct RunSet {
    /// workload → metric → one value per seed.
    end_to_end: BTreeMap<&'static str, BTreeMap<String, Vec<f64>>>,
    per_layer: BTreeMap<&'static str, BTreeMap<String, f64>>,
    incorrect: Vec<String>,
}

impl RunSet {
    fn run(
        &mut self,
        label: &str,
        name: &'static str,
        seed: u64,
        seconds: f64,
        traced: bool,
    ) -> Result<(), String> {
        let r = run_child(name, seed, seconds, traced, false)?;
        let kind = if traced { " traced" } else { "" };
        println!(
            "set {label}: {name} seed {seed}{kind}: attempted {} failed {}",
            r.attempted, r.failed
        );
        if !r.correct || r.failed > 0 {
            self.incorrect.push(format!("set {label} {name} seed {seed}{kind}"));
        }
        if traced {
            self.per_layer.insert(name, r.metrics);
        } else {
            for (metric, value) in r.metrics {
                self.end_to_end.entry(name).or_default().entry(metric).or_default().push(value);
            }
        }
        Ok(())
    }
}

/// `agree`: two sets of runs of the same build must agree within the
/// benchmark's own bounds. The sets are interleaved run by run, and which
/// of them goes first alternates, so neither is the warm one or the late
/// one. Prints, per metric and workload, both medians, the gap and the
/// bound; fails when a gap exceeds its bound in either direction, when a
/// deterministic count differs, or when any operation failed.
pub fn agree(seconds: f64) -> Result<(), String> {
    let (mut a, mut b) = (RunSet::default(), RunSet::default());
    for name in NAMES {
        for (i, &seed) in AGREE_SEEDS.iter().enumerate() {
            if i % 2 == 0 {
                a.run("A", name, seed, seconds, false)?;
                b.run("B", name, seed, seconds, false)?;
            } else {
                b.run("B", name, seed, seconds, false)?;
                a.run("A", name, seed, seconds, false)?;
            }
        }
        a.run("A", name, AGREE_SEEDS[0], seconds, true)?;
        b.run("B", name, AGREE_SEEDS[0], seconds, true)?;
    }
    let mut violations: Vec<String> = a.incorrect.iter().chain(&b.incorrect).cloned().collect();
    let mut rows = Vec::new();

    println!(
        "\n{:<20} {:<18} {:>12} {:>12} {:>8} {:>6}",
        "workload", "metric", "median A", "median B", "gap", "bound"
    );
    for name in NAMES {
        for def in &metrics::END_TO_END {
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let ma = stats::median(&a.end_to_end[name][def.name]);
            let mb = stats::median(&b.end_to_end[name][def.name]);
            let gap = relative_gap(ma, mb);
            // Only the workloads `BENCHMARK.json` lists are held to the
            // bounds; the other two are shown beside them.
            let verdict = match (gap <= bound, GATED.contains(&name)) {
                (true, _) => "",
                (false, true) => "EXCEEDED",
                (false, false) => "exceeded (not gated)",
            };
            println!(
                "{name:<20} {:<18} {ma:>12.4} {mb:>12.4} {:>7.2}% {:>5.0}% {verdict}",
                def.name,
                gap * 100.0,
                bound * 100.0,
            );
            if verdict == "EXCEEDED" {
                violations.push(format!("{name} {}: gap {gap:.4} exceeds {bound}", def.name));
            }
            rows.push(json!({
                "workload": (name), "metric": (def.name), "median_a": (ma), "median_b": (mb),
                "gap": (gap), "bound": (bound), "gated": (GATED.contains(&name)),
            }));
        }
    }
    for name in DETERMINISTIC {
        for def in metrics::PER_LAYER.iter().filter(|d| repeats_exactly(d)) {
            let (va, vb) = (a.per_layer[name].get(def.name), b.per_layer[name].get(def.name));
            if va.map(|v| v.to_bits()) != vb.map(|v| v.to_bits()) {
                violations
                    .push(format!("{name} {}: {va:?} then {vb:?}, must repeat exactly", def.name));
            }
        }
    }
    write_out(
        "agree.json",
        &json!({
            "environment": (env::stamp()),
            "seeds": (AGREE_SEEDS.to_vec()),
            "constants": (frozen_constants(seconds)),
            "rows": (Value::Array(rows)),
            "violations": (violations.clone()),
        }),
    )?;
    if violations.is_empty() {
        println!("agree: two sets of runs agree within the bounds");
        Ok(())
    } else {
        for v in &violations {
            println!("agree: {v}");
        }
        Err(format!(
            "{} disagreement(s) between two sets of runs of the same build",
            violations.len()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_has_no_direction() {
        assert!((relative_gap(100.0, 110.0) - 0.10).abs() < 1e-12);
        assert_eq!(relative_gap(100.0, 110.0), relative_gap(110.0, 100.0));
        // A second set 40 % faster is a 67 % gap, not an agreement.
        assert!(relative_gap(100.0, 60.0) > 0.25);
        assert_eq!(relative_gap(0.0, 0.0), 0.0);
        assert_eq!(relative_gap(0.0, 5.0), f64::INFINITY);
    }

    #[test]
    fn counts_and_modeled_clocks_must_repeat() {
        let exact: Vec<&str> =
            metrics::PER_LAYER.iter().filter(|d| repeats_exactly(d)).map(|d| d.name).collect();
        for name in [
            "modeled_s",
            "model_gap",
            "core.sweep.passes",
            "gpu.kernel_L_us",
            "dist.exchange_bytes",
        ] {
            assert!(exact.contains(&name), "{name}");
        }
        for name in ["circuit.parse_s", "core.kernel.low1_ns_per_amp.f32", "serve.rtt_us"] {
            assert!(!exact.contains(&name), "{name}");
        }
    }
}
