//! # qsim-bench
//!
//! The paper-reproduction harness: one binary, `qsim_bench <suite>`, whose
//! suites regenerate the paper's table and figures and the studies beyond
//! them:
//!
//! | Suite | Artifact | Writes |
//! |---|---|---|
//! | `table1` | Table 1 — hardware and software setup | stdout only |
//! | `fig7 [--validate N]` | Figure 7 — CPU vs MI250X GPU time vs max fused gates | `results/fig7.csv` |
//! | `fig8` | Figure 8 — single vs double precision on the HIP backend | `results/fig8.csv` |
//! | `fig9` | Figure 9 — CUDA / cuQuantum / HIP across A100 and MI250X | `results/fig9.csv` |
//! | `trace [--functional N] [-o FILE]` | Figures 1 & 6 — rocprof/Perfetto trace of the HIP run | `results/trace_fig1.json` |
//! | `ablations` | model ablations (L-kernel redesign, launch latency, …) | `results/ablation_*.csv` |
//! | `multi-gcd [ci]` | multi-GCD scaling, the paper's future work | `results/multi_gcd_strong.csv` |
//! | `serve …` | load generator for the `qsim-serve` job service | `results/serve_*.csv` |
//!
//! A modeled figure is a list of [`Row`]s (flavor, precision, device) that
//! [`evaluate`] prices over [`FUSION_SWEEP`] on the paper circuit, plus the
//! [`Claim`]s it checks. Every suite hands back an [`Outcome`] (files and
//! claims); the binary alone writes the files and fails on a missed claim.
//! Times for paper hardware are **modeled** by `gpu-model` (there is no
//! physical A100/MI250X here).

use std::fmt::Write as _;

use gpu_model::DeviceSpec;
use qsim_backends::{BackendError, Flavor, FusionPlan, RunReport, SimBackend, SweepConfig};
use qsim_circuit::{generate_rqc, Circuit, RqcOptions};
use qsim_core::types::Precision;
use qsim_distributed::interconnect::Topology;
use qsim_distributed::schedule::DistOptions;
use qsim_distributed::MultiGcdBackend;
use qsim_fusion::{fuse, FusedCircuit};

pub mod figures;
pub mod multi_gcd;
pub mod serve;

/// The fusion sweep every figure uses.
pub const FUSION_SWEEP: [usize; 6] = [1, 2, 3, 4, 5, 6];

/// The paper's benchmark circuit: 30-qubit RQC, 14 cycles.
pub fn paper_circuit() -> Circuit {
    generate_rqc(&RqcOptions::paper_q30())
}

/// The paper circuit fused at every budget of [`FUSION_SWEEP`].
pub fn paper_sweep() -> Vec<FusedCircuit> {
    let circuit = paper_circuit();
    FUSION_SWEEP.iter().map(|&f| fuse(&circuit, f)).collect()
}

/// The device a [`Row`] is priced on.
pub enum Device {
    /// The flavor's default device.
    Default,
    /// A modified device spec.
    Spec(DeviceSpec),
    /// The default device with its low-qubit rearrangement overhead
    /// replaced (bytes of extra traffic per byte moved).
    LowQubitOverhead(f64),
    /// `devices` GCDs on `topology` (the flavor's native link if `None`),
    /// exchanging under `options`.
    Sharded { devices: usize, topology: Option<Topology>, options: DistOptions },
}

/// One modeled series of a figure: a label and the configuration it
/// prices.
pub struct Row {
    pub label: String,
    pub flavor: Flavor,
    pub precision: Precision,
    pub device: Device,
}

impl Row {
    /// A row on the flavor's default device.
    pub fn new(label: impl Into<String>, flavor: Flavor, precision: Precision) -> Row {
        Row { label: label.into(), flavor, precision, device: Device::Default }
    }

    /// The same row priced on `device`.
    pub fn on(self, device: Device) -> Row {
        Row { device, ..self }
    }

    /// Devices the row shards over (1 unless sharded).
    pub fn devices(&self) -> usize {
        match self.device {
            Device::Sharded { devices, .. } => devices,
            _ => 1,
        }
    }

    /// The modeled report of a dry run of `fused` in this configuration,
    /// which must fit its devices.
    pub fn report(&self, fused: &FusedCircuit) -> RunReport {
        self.estimate(fused).expect("every figure configuration fits its modeled devices")
    }

    /// The modeled report of a dry run of `fused` in this configuration.
    pub fn estimate(&self, fused: &FusedCircuit) -> Result<RunReport, BackendError> {
        let (flavor, precision) = (self.flavor, self.precision);
        match &self.device {
            Device::Default => SimBackend::new(flavor).estimate(fused, precision),
            Device::Spec(spec) => {
                SimBackend::with_spec(flavor, spec.clone()).estimate(fused, precision)
            }
            Device::LowQubitOverhead(overhead) => {
                let mut backend = SimBackend::new(flavor);
                backend.set_low_qubit_byte_overhead(Some(*overhead));
                backend.estimate(fused, precision)
            }
            &Device::Sharded { devices, topology, options } => {
                let backend = match topology {
                    Some(t) => MultiGcdBackend::with_topology(flavor, devices, t),
                    None => MultiGcdBackend::new(flavor, devices),
                };
                let plan = FusionPlan::check(fused.clone().into(), SweepConfig::disabled());
                backend.with_options(options).estimate_plan(&plan, precision)
            }
        }
    }
}

/// Each row's modeled seconds across `sweep` (the fused paper circuit,
/// [`paper_sweep`]).
pub fn evaluate(rows: &[Row], sweep: &[FusedCircuit]) -> Vec<Series> {
    rows.iter()
        .map(|row| {
            let values = sweep.iter().map(|fc| row.report(fc).simulated_seconds).collect();
            Series::new(row.label.clone(), values)
        })
        .collect()
}

/// One row of a result table: label plus a value per fusion setting.
pub struct Series {
    pub label: String,
    pub values: Vec<f64>,
}

impl Series {
    pub fn new(label: impl Into<String>, values: Vec<f64>) -> Self {
        Series { label: label.into(), values }
    }

    /// `op(a, b)` per fusion setting.
    pub fn derived(label: &str, a: &Series, b: &Series, op: impl Fn(f64, f64) -> f64) -> Self {
        Series::new(label, a.values.iter().zip(&b.values).map(|(x, y)| op(*x, *y)).collect())
    }

    /// Index of the minimum (the optimal fusion setting, as 1-based `f`).
    pub fn optimal_fusion(&self) -> usize {
        let (idx, _) = self
            .values
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite times"))
            .expect("non-empty series");
        FUSION_SWEEP[idx]
    }
}

/// Render series as an aligned text table with a fusion-sweep header.
pub fn render_table(title: &str, unit: &str, series: &[Series]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let _ = write!(out, "{:<34}", format!("series ({unit})"));
    for f in FUSION_SWEEP {
        let _ = write!(out, "{:>10}", format!("f={f}"));
    }
    let _ = writeln!(out);
    for s in series {
        let _ = write!(out, "{:<34}", s.label);
        for v in &s.values {
            let _ = write!(out, "{v:>10.3}");
        }
        let _ = writeln!(out);
    }
    out
}

/// A CSV file under `results/`.
pub struct Csv {
    name: &'static str,
    text: String,
}

impl Csv {
    /// A table filled row by row, each line echoed to stdout as it is added.
    pub fn new(name: &'static str, header: &str) -> Csv {
        println!("{header}");
        Csv { name, text: format!("{header}\n") }
    }

    /// Append (and echo) one row.
    pub fn row(&mut self, row: String) {
        println!("{row}");
        self.text += &row;
        self.text.push('\n');
    }

    /// The series as `series,f=1,…` rows.
    pub fn series(name: &'static str, series: &[Series]) -> Csv {
        let mut text = String::from("series");
        for f in FUSION_SWEEP {
            let _ = write!(text, ",f={f}");
        }
        for s in series {
            let _ = write!(text, "\n{}", s.label);
            for v in &s.values {
                let _ = write!(text, ",{v}");
            }
        }
        text.push('\n');
        Csv { name, text }
    }

    /// `results/<name>` and its bytes.
    pub fn artifact(self) -> (String, Vec<u8>) {
        (format!("results/{}", self.name), self.text.into_bytes())
    }
}

/// A paper claim checked against the model; collected into the harness
/// summary.
pub struct Claim {
    pub description: String,
    pub paper: String,
    pub model: String,
    pub holds: bool,
}

impl Claim {
    pub fn new(description: &str, paper: &str, model: String, holds: bool) -> Claim {
        Claim { description: description.into(), paper: paper.into(), model, holds }
    }
}

/// Render claims as a check-list.
pub fn render_claims(claims: &[Claim]) -> String {
    let mut out = String::from("\npaper-vs-model checks:\n");
    for c in claims {
        let mark = if c.holds { "PASS" } else { "MISS" };
        let _ = writeln!(
            out,
            "  [{mark}] {:<52} paper: {:<18} model: {}",
            c.description, c.paper, c.model
        );
    }
    out
}

/// What a suite hands back: the files it regenerates, as (path, bytes),
/// and the claims it checked.
#[derive(Default)]
pub struct Outcome {
    pub artifacts: Vec<(String, Vec<u8>)>,
    pub claims: Vec<Claim>,
}

impl Outcome {
    /// The files `csvs`, no claims.
    pub fn files(csvs: impl IntoIterator<Item = Csv>) -> Outcome {
        Outcome { artifacts: csvs.into_iter().map(Csv::artifact).collect(), claims: Vec::new() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_optimal_fusion() {
        let s = Series::new("x", vec![5.0, 3.0, 2.0, 1.5, 1.8, 2.2]);
        assert_eq!(s.optimal_fusion(), 4);
    }

    #[test]
    fn table_renders() {
        let s = vec![Series::new("cpu", vec![1.0; 6])];
        let t = render_table("T", "s", &s);
        assert!(t.contains("f=4"));
        assert!(t.contains("cpu"));
    }

    #[test]
    fn claims_render() {
        let c = vec![Claim::new("d", "p", "m".into(), true)];
        assert!(render_claims(&c).contains("[PASS]"));
    }

    #[test]
    fn csv_files() {
        let mut csv = Csv::new("x.csv", "a,b");
        csv.row(format!("{},{}", 1, 0.5));
        let series = Csv::series("s.csv", &[Series::new("cpu", vec![1.0, 0.25])]);
        let out = Outcome { artifacts: vec![csv.artifact(), series.artifact()], claims: vec![] };
        assert_eq!(out.artifacts[0], ("results/x.csv".into(), b"a,b\n1,0.5\n".to_vec()));
        let header = "series,f=1,f=2,f=3,f=4,f=5,f=6";
        assert_eq!(out.artifacts[1].1, format!("{header}\ncpu,1,0.25\n").into_bytes());
    }
}
