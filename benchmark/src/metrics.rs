//! The metric tables (`BENCHMARK.json` lists the same names, units and
//! directions; a unit test keeps the two equal), the result a workload
//! hands back, and how it is printed.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::stats::Summary;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    /// As `BENCHMARK.json` spells it.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One row of a metric table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef { name, unit, better, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better, bound: None }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one:
/// the driver's contract has no "not applicable", so the table holds only
/// what is a quantity of its own on every workload.
///
/// An *operation* is one full parse → plan → analyse → run → sample pass
/// on `rqc22-*`, one pass over the whole estimate grid on `est30-grid`,
/// one job from its scheduled send to its last streamed byte on
/// `serve-mix-open` and `serve-repeat-cached`, and one pipelined wave of
/// gang jobs on `serve-batch-gang`. `latency_ms` is the typical
/// operation, estimated the way that repeats best on each workload: the
/// median operation, except the sum of every cell's fastest repetition
/// on `est30-grid` and each shape's quiet mean ([`crate::stats::quiet_mean`])
/// weighted by its share of the arrivals on `serve-mix-open`. A tail
/// percentile and the throughput were gated once; on a shared host they
/// measure the host (and on the pass workloads they were the median
/// again), so they are reported per layer, without a bound.
///
/// A metric has one bound for all workloads, so the workload that repeats
/// worst sets it, and no bound may exceed the 0.25 the driver's contract
/// allows. The README's "Noise" has the sweeps.
pub const END_TO_END: [MetricDef; 3] = [
    e2e("latency_ms", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single-layer metrics, reported by the traced run. A layer a workload
/// never calls reports 0 for that workload. Units ending in `_model`
/// are the `gpu-model` timeline's clock, not the host's.
pub const PER_LAYER: [MetricDef; 85] = [
    // The whole distribution of the operations `latency_ms` takes the
    // fast end of: median, the workload's frozen tail percentile, and
    // operations per second.
    layer("latency_median_ms", "ms", Lower),
    layer("latency_tail_ms", "ms", Lower),
    layer("throughput_per_s", "1/s", Higher),
    // The three clocks of the headline cell, side by side.
    layer("modeled_s", "s_model", Lower),
    layer("model_gap", "frac", Lower),
    // qsim-circuit
    layer("circuit.parse_s", "s", Lower),
    layer("circuit.hash_ns", "ns", Lower),
    layer("circuit.gates", "count", Lower),
    // qsim-fusion
    layer("fusion.plan_s.greedy", "s", Lower),
    layer("fusion.plan_s.cost", "s", Lower),
    layer("fusion.plan_s.auto", "s", Lower),
    layer("fusion.fused_gates", "count", Lower),
    layer("fusion.compression", "ratio", Higher),
    layer("fusion.predicted_s", "s_model", Lower),
    // qsim-analyze
    layer("analyze.pre_run_s", "s", Lower),
    // qsim-backends
    layer("backend.run_s", "s", Lower),
    layer("backend.setup_s", "s", Lower),
    layer("backend.estimate_s", "s", Lower),
    layer("backend.run_batch16_s", "s", Lower),
    // qsim-core
    layer("core.kernel.low1_ns_per_amp.f32", "ns/amp", Lower),
    layer("core.kernel.low2_ns_per_amp.f32", "ns/amp", Lower),
    layer("core.kernel.high1_ns_per_amp.f32", "ns/amp", Lower),
    layer("core.kernel.high2_ns_per_amp.f32", "ns/amp", Lower),
    layer("core.kernel.mixed2_ns_per_amp.f32", "ns/amp", Lower),
    layer("core.kernel.diag_ns_per_amp.f32", "ns/amp", Lower),
    layer("core.kernel.ctrl_ns_per_amp.f32", "ns/amp", Lower),
    layer("core.kernel.low1_ns_per_amp.f64", "ns/amp", Lower),
    layer("core.kernel.low2_ns_per_amp.f64", "ns/amp", Lower),
    layer("core.kernel.high1_ns_per_amp.f64", "ns/amp", Lower),
    layer("core.kernel.high2_ns_per_amp.f64", "ns/amp", Lower),
    layer("core.kernel.mixed2_ns_per_amp.f64", "ns/amp", Lower),
    layer("core.kernel.diag_ns_per_amp.f64", "ns/amp", Lower),
    layer("core.kernel.ctrl_ns_per_amp.f64", "ns/amp", Lower),
    layer("core.sweep.run_s", "s", Lower),
    layer("core.pergate.run_s", "s", Lower),
    layer("core.sweep.passes", "count", Lower),
    layer("core.sweep.passes_saved", "count", Higher),
    layer("core.amp_updates", "count", Lower),
    layer("core.bytes_moved_computed", "bytes", Lower),
    layer("core.eff_gbps_computed", "GB/s", Higher),
    layer("core.sample_s", "s", Lower),
    layer("core.fidelity_err", "frac", Lower),
    layer("core.norm_err", "frac", Lower),
    // gpu-model
    layer("gpu.launches", "count", Lower),
    layer("gpu.kernel_H_us", "us_model", Lower),
    layer("gpu.kernel_L_us", "us_model", Lower),
    layer("gpu.memcpy_us", "us_model", Lower),
    layer("gpu.fusion_us", "us_model", Lower),
    layer("gpu.modeled_s.hip.f32.f4", "s_model", Lower),
    layer("gpu.modeled_s.cuda.f32.f4", "s_model", Lower),
    layer("gpu.modeled_s.custatevec.f32.f4", "s_model", Lower),
    layer("gpu.modeled_s.cpu.f32.f4", "s_model", Lower),
    layer("gpu.modeled_s.hip.f64.f4", "s_model", Lower),
    layer("gpu.modeled_s.hip.f32.f2", "s_model", Lower),
    layer("gpu.modeled_s.hip.f32.f6", "s_model", Lower),
    // qsim-distributed
    layer("dist.plan_s", "s", Lower),
    layer("dist.estimate_s", "s", Lower),
    layer("dist.exchange_bytes", "bytes", Lower),
    layer("dist.swap_epochs", "count", Lower),
    layer("dist.modeled_s.g8", "s_model", Lower),
    // qsim-trace and the harness's own recorder
    layer("trace.overhead_frac", "frac", Lower),
    layer("trace.run_overhead_frac", "frac", Lower),
    layer("trace.self_sum_frac", "frac", Higher),
    // qsim-serve
    layer("serve.handle_line_us", "us", Lower),
    layer("serve.submit_us", "us", Lower),
    layer("serve.rtt_us", "us", Lower),
    layer("serve.exec_ms", "ms", Lower),
    layer("serve.wait_ms", "ms", Lower),
    layer("serve.setup_cold_ms", "ms", Lower),
    layer("serve.setup_warm_ms", "ms", Lower),
    layer("serve.pool.hit_rate", "frac", Higher),
    layer("serve.rejected", "count", Lower),
    layer("serve.batches", "count", Lower),
    layer("serve.batch_occupancy", "count", Higher),
    layer("serve.plan_cache.hit_rate", "frac", Higher),
    layer("serve.result_cache.hit_rate", "frac", Higher),
    layer("serve.result_cache.evictions", "count", Lower),
    layer("serve.result_cache.shed_bytes", "bytes", Lower),
    layer("serve.generator_lag_p99_ms", "ms", Lower),
    layer("serve.latency_p99_ms", "ms", Lower),
    layer("serve.jobs", "count", Higher),
    layer("serve.slo_miss_frac", "frac", Lower),
    // qsim-cache
    layer("cache.get_ns", "ns", Lower),
    layer("cache.insert_ns", "ns", Lower),
    layer("cache.evict_ns", "ns", Lower),
];

/// The table a run with the given `--trace` value reports.
pub fn table(traced: bool) -> &'static [MetricDef] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// What one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong output.
    pub failed: u64,
    /// Why `failed` is not 0 or an invariant across operations broke.
    pub problems: Vec<String>,
    pub values: BTreeMap<&'static str, Summary>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Record a metric from its samples (skipped when there are none).
    pub fn sample(&mut self, name: &'static str, values: &[f64]) {
        if !values.is_empty() {
            self.values.insert(name, Summary::of(values));
        }
    }

    /// Record a metric that is a single number taken over `n` operations.
    pub fn scalar(&mut self, name: &'static str, value: f64, n: usize) {
        self.values.insert(name, Summary::scalar(value, n));
    }

    /// Note a failed check; keeps the first few messages.
    pub fn problem(&mut self, message: String) {
        if self.problems.len() < 8 {
            self.problems.push(message);
        }
    }

    /// Human-readable table: every metric of `defs` by name, with unit,
    /// sample count, median and quartiles.
    pub fn render(&self, workload: &str, defs: &[MetricDef]) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{workload}: attempted {} failed {} correct {}",
            self.attempted,
            self.failed,
            self.correct()
        );
        for p in &self.problems {
            let _ = writeln!(out, "  problem: {p}");
        }
        let _ = writeln!(
            out,
            "  {:<36} {:>9} {:>8} {:>16} {:>16} {:>16}",
            "metric", "unit", "n", "q1", "median", "q3"
        );
        for def in defs {
            match self.values.get(def.name) {
                Some(s) => {
                    let _ = writeln!(
                        out,
                        "  {:<36} {:>9} {:>8} {:>16} {:>16} {:>16}",
                        def.name,
                        def.unit,
                        s.n,
                        sig(s.q1),
                        sig(s.median),
                        sig(s.q3)
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "  {:<36} {:>9} {:>8} {:>16} {:>16} {:>16}",
                        def.name, def.unit, 0, "-", "layer not called", "-"
                    );
                }
            }
        }
        out
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, the latter holding exactly the metrics of `defs`.
    pub fn result_line(&self, defs: &[MetricDef]) -> String {
        let metrics: Vec<(String, Value)> = defs
            .iter()
            .map(|def| {
                let value = self.values.get(def.name).map_or(0.0, |s| s.median);
                let entry = Value::Object(vec![
                    ("value".to_string(), Value::Number(value)),
                    ("unit".to_string(), Value::String(def.unit.to_string())),
                ]);
                (def.name.to_string(), entry)
            })
            .collect();
        let doc = Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::Number(self.attempted as f64)),
            ("failed".to_string(), Value::Number(self.failed as f64)),
            ("metrics".to_string(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&doc).expect("a Value always serialises")
    }
}

/// Six significant digits, enough to compare by eye.
fn sig(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() >= 1e7 || v.abs() < 1e-3 {
        format!("{v:.5e}")
    } else {
        let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
        format!("{v:.digits$}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(def.name), "{}", def.name);
            assert!(valid_unit(def.unit), "{} unit {}", def.name, def.unit);
            assert!(seen.insert(def.name), "{} used twice", def.name);
        }
        assert!(END_TO_END.iter().all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(END_TO_END.iter().any(|d| (d.name, d.unit, d.better) == ("setup_s", "s", Lower)));
        let largest = END_TO_END.iter().filter_map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(END_TO_END.iter().find(|d| d.name == "setup_s").unwrap().bound, Some(largest));
        assert!(PER_LAYER.len() <= 128 && PER_LAYER.iter().all(|d| d.bound.is_none()));
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the program prints. They must not drift apart.
    #[test]
    fn benchmark_json_lists_the_same_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
        );
        let rows = |key: &str| doc.get(key).and_then(Value::as_array).unwrap().clone();
        let text =
            |row: &Value, key: &str| row.get(key).and_then(Value::as_str).unwrap().to_string();
        for (key, defs) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let listed = rows(key);
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (row, def) in listed.iter().zip(defs) {
                assert_eq!(text(row, "name"), def.name);
                assert_eq!(text(row, "unit"), def.unit, "{}", def.name);
                assert_eq!(text(row, "better"), def.better.label(), "{}", def.name);
                assert_eq!(row.get("bound").and_then(Value::as_f64), def.bound, "{}", def.name);
            }
        }
        let names: Vec<String> = rows("workloads").iter().map(|w| text(w, "name")).collect();
        assert_eq!(names, crate::workloads::GATED);
        assert!(names.iter().all(|name| crate::workloads::NAMES.contains(&name.as_str())));
        assert!(rows("workloads").iter().all(|w| text(w, "why").len() <= 200));
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_u64),
            Some(crate::workloads::RUN_SECONDS)
        );
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome { attempted: 3, ..Outcome::default() };
        outcome.sample("latency_ms", &[1.0, 2.0, 3.0]);
        let doc: Value = serde_json::from_str(&outcome.result_line(&END_TO_END)).unwrap();
        let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = doc.get("metrics").and_then(Value::as_object).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let p50 = doc.get("metrics").and_then(|m| m.get("latency_ms")).unwrap();
        assert_eq!(p50.get("value").and_then(Value::as_f64), Some(2.0));
        assert_eq!(p50.get("unit").and_then(Value::as_str), Some("ms"));
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn a_problem_makes_the_outcome_incorrect() {
        let mut outcome = Outcome { attempted: 1, ..Outcome::default() };
        assert!(outcome.correct());
        outcome.problem("digest changed".into());
        assert!(!outcome.correct());
        assert!(outcome.render("w", &END_TO_END).contains("digest changed"));
    }
}
