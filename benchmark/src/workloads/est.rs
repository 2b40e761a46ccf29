//! `est30-grid`: the paper's 30-qubit circuit, estimate-only, over the
//! whole configuration grid of Figures 7 to 9 — four flavors, two
//! precisions, the greedy and cost planners at `-f 1..6` and `auto` —
//! plus sharded `hip` cells at 32 to 34 qubits on 2, 4 and 8 GCDs.
//!
//! No amplitude is computed. Parsing, fusion planning, pre-run analysis,
//! the estimate walker, `gpu-model` pricing and the swap scheduler do
//! all the work and the `qsim-core` kernels none: the mirror image of
//! `rqc22-*`, and the path `fig7/8/9` and `qsim_base -e` users take.

use std::time::Instant;

use qsim_analyze::Analyzer;
use qsim_backends::{
    BackendError, Flavor, FusionPlan, PlanOptions, RunReport, SimBackend, SweepConfig,
};
use qsim_circuit::parser::parse_circuit;
use qsim_circuit::Circuit;
use qsim_core::types::Precision;
use qsim_distributed::MultiGcdBackend;
use qsim_fusion::FusionStrategy;

use super::{time_median, Measured, ModeledCeiling, Workload};
use crate::inputs;
use crate::metrics::Outcome;
use crate::spans::Recorder;

/// Width of the single-device cells.
const QUBITS: usize = 30;
/// `(qubits, GCDs)` of the sharded cells, all `hip`, f32, cost `-f 4`.
const SHARDED: [(usize, usize); 9] =
    [(32, 2), (32, 4), (32, 8), (33, 2), (33, 4), (33, 8), (34, 2), (34, 4), (34, 8)];
const MIN_PASSES: usize = 3;

/// One configuration of the grid.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Cell {
    /// Index into [`Est30Grid::texts`].
    circuit: usize,
    /// 1 = single device.
    devices: usize,
    flavor: Flavor,
    precision: Precision,
    plan: PlanOptions,
}

/// What a cell must reproduce exactly on every pass.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CellValue {
    modeled_s: f64,
    predicted_s: f64,
    fused_gates: usize,
}

pub struct Est30Grid {
    /// qsim text of the 30-qubit circuit, then of each sharded width.
    texts: Vec<String>,
    cells: Vec<Cell>,
    /// First-pass value of every cell.
    expected: Vec<CellValue>,
    passes: u64,
}

fn grid() -> Vec<Cell> {
    let mut cells = Vec::new();
    for flavor in Flavor::all() {
        for precision in [Precision::Single, Precision::Double] {
            for strategy in [FusionStrategy::Greedy, FusionStrategy::Cost] {
                for max_fused_qubits in 1..=6 {
                    cells.push(Cell {
                        circuit: 0,
                        devices: 1,
                        flavor,
                        precision,
                        plan: PlanOptions { strategy, max_fused_qubits },
                    });
                }
            }
            // `auto` sweeps its own budgets and ignores the one given.
            cells.push(Cell {
                circuit: 0,
                devices: 1,
                flavor,
                precision,
                plan: PlanOptions { strategy: FusionStrategy::Auto, max_fused_qubits: 4 },
            });
        }
    }
    for (i, &(_, devices)) in SHARDED.iter().enumerate() {
        cells.push(Cell {
            circuit: 1 + i / 3,
            devices,
            flavor: Flavor::Hip,
            precision: Precision::Single,
            plan: PlanOptions { strategy: FusionStrategy::Cost, max_fused_qubits: 4 },
        });
    }
    cells
}

/// Per-pass seconds spent in each layer.
#[derive(Default)]
struct LayerSeconds {
    parse: f64,
    plan: [f64; 3],
    pre_run: f64,
    estimate: f64,
    dist_plan: f64,
    dist_estimate: f64,
}

fn strategy_index(strategy: FusionStrategy) -> usize {
    match strategy {
        FusionStrategy::Greedy => 0,
        FusionStrategy::Cost => 1,
        FusionStrategy::Auto => 2,
    }
}

/// The backend of one cell. `SimBackend` and `MultiGcdBackend` share
/// their method names but no trait. One lives on the stack for the length
/// of a cell, so the size difference costs nothing and a `Box` would put an
/// allocation inside the timed region.
#[allow(clippy::large_enum_variant)]
enum Device {
    Single(SimBackend),
    Sharded(MultiGcdBackend),
}

impl Device {
    fn of(cell: &Cell) -> Device {
        if cell.devices == 1 {
            Device::Single(SimBackend::new(cell.flavor))
        } else {
            Device::Sharded(MultiGcdBackend::new(cell.flavor, cell.devices))
        }
    }

    fn plan(&self, circuit: &Circuit, cell: &Cell) -> FusionPlan {
        match self {
            Device::Single(b) => b.plan_circuit(circuit, &cell.plan, cell.precision),
            Device::Sharded(b) => b.plan_circuit(circuit, &cell.plan, cell.precision),
        }
    }

    fn sweep(&self) -> SweepConfig {
        match self {
            Device::Single(b) => b.sweep_config(),
            Device::Sharded(_) => SweepConfig::default(),
        }
    }

    fn estimate(&self, plan: &FusionPlan, cell: &Cell) -> Result<RunReport, BackendError> {
        match self {
            Device::Single(b) => b.estimate_plan(plan, cell.precision),
            Device::Sharded(b) => b.estimate_plan(plan, cell.precision),
        }
    }
}

impl Est30Grid {
    /// Parse, plan, analyse and estimate one cell, as a fresh process
    /// would: nothing is carried over from the previous cell.
    fn cell(
        &self,
        cell: &Cell,
        op: u64,
        rec: &mut Recorder,
        layers: &mut LayerSeconds,
    ) -> Result<CellValue, String> {
        let t0 = Instant::now();
        let span = rec.begin("qsim-circuit", "parse_circuit", op);
        let circuit =
            parse_circuit(&self.texts[cell.circuit]).map_err(|e| format!("parse: {e}"))?;
        rec.end(span);
        let t1 = Instant::now();
        layers.parse += (t1 - t0).as_secs_f64();

        let device = Device::of(cell);
        let sharded = matches!(device, Device::Sharded(_));
        let span =
            rec.begin(if sharded { "qsim-distributed" } else { "qsim-fusion" }, "plan_circuit", op);
        let plan = device.plan(&circuit, cell);
        rec.end(span);
        let t2 = Instant::now();

        let span = rec.begin("qsim-analyze", "Analyzer::pre_run", op);
        let analysis =
            Analyzer::pre_run().analyze_plan(&plan.fused, Some(&circuit), device.sweep());
        rec.end(span);
        let t3 = Instant::now();
        if analysis.has_errors() {
            return Err(format!("{cell:?}: plan rejected:\n{}", analysis.render()));
        }

        let span = rec.begin(
            if sharded { "qsim-distributed" } else { "qsim-backends" },
            "estimate_plan",
            op,
        );
        let report = device.estimate(&plan, cell);
        rec.end(span);
        let t4 = Instant::now();

        let (plan_s, estimate_s) = ((t2 - t1).as_secs_f64(), (t4 - t3).as_secs_f64());
        layers.pre_run += (t3 - t2).as_secs_f64();
        if sharded {
            layers.dist_plan += plan_s;
            layers.dist_estimate += estimate_s;
        } else {
            layers.plan[strategy_index(cell.plan.strategy)] += plan_s;
            layers.estimate += estimate_s;
        }
        let report = report.map_err(|e| format!("{cell:?}: estimate: {e}"))?;
        rec.count("fusion.fused_gates", report.fused_gates as u64);
        rec.count("gpu.launches", report.launches_matching(""));
        Ok(CellValue {
            modeled_s: report.simulated_seconds,
            predicted_s: report.predicted_cost_seconds,
            fused_gates: report.fused_gates,
        })
    }

    /// One pass over the grid. Returns wall milliseconds and cell values,
    /// and lowers `fastest_ms[i]` to cell `i`'s time when that is less.
    fn pass(
        &mut self,
        rec: &mut Recorder,
        layers: &mut LayerSeconds,
        fastest_ms: &mut [f64],
    ) -> (f64, Vec<Result<CellValue, String>>) {
        let op = self.passes;
        self.passes += 1;
        let root = rec.begin("harness", "grid pass", op);
        let t0 = Instant::now();
        let mut cell_start = t0;
        let values = self
            .cells
            .iter()
            .zip(fastest_ms)
            .map(|(cell, fastest)| {
                let value = self.cell(cell, op, rec, layers);
                let now = Instant::now();
                *fastest = fastest.min((now - cell_start).as_secs_f64() * 1e3);
                cell_start = now;
                value
            })
            .collect();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        rec.end(root);
        (ms, values)
    }

    fn find(&self, flavor: Flavor, precision: Precision, plan: PlanOptions) -> CellValue {
        let at = self
            .cells
            .iter()
            .position(|c| {
                c.devices == 1 && c.flavor == flavor && c.precision == precision && c.plan == plan
            })
            .expect("the grid holds every single-device configuration");
        self.expected[at]
    }
}

impl Workload for Est30Grid {
    // About nine passes of the grid fit a traced run's third.
    const TAIL_PCT: f64 = 50.0;
    const RSS_OPS: usize = MIN_PASSES;
    // The hip/f32/auto cell of the 30-qubit circuit on the seed commit.
    const MODELED: Option<ModeledCeiling> = Some(ModeledCeiling {
        modeled_s: 1.4962513218164557,
        model_gap: 0.014556592392945378,
        isa: None,
    });

    fn setup(seed: u64) -> Result<Self, String> {
        let mut texts = vec![inputs::paper_q30_text(seed)];
        debug_assert!(texts[0].starts_with(&format!("{QUBITS}\n")));
        for &(qubits, _) in SHARDED.iter().step_by(3) {
            texts.push(inputs::rqc_text(qubits, seed));
        }
        let mut workload = Est30Grid { texts, cells: grid(), expected: Vec::new(), passes: 0 };
        let mut scratch = vec![f64::INFINITY; workload.cells.len()];
        let (_, values) =
            workload.pass(&mut Recorder::off(), &mut LayerSeconds::default(), &mut scratch);
        workload.expected = values.into_iter().collect::<Result<_, _>>()?;
        Ok(workload)
    }

    fn measure(&mut self, seconds: f64, rec: &mut Recorder) -> Measured {
        let mut m = Measured::default();
        let start = Instant::now();
        let mut busy_ms = 0.0;
        let mut fastest_ms = vec![f64::INFINITY; self.cells.len()];
        while m.op_ms.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
            let mut layers = LayerSeconds::default();
            let (ms, values) = self.pass(rec, &mut layers, &mut fastest_ms);
            busy_ms += ms;
            m.op_ms.push(ms);
            m.note_rss(m.op_ms.len(), Self::RSS_OPS);
            for ((cell, value), expected) in self.cells.iter().zip(values).zip(&self.expected) {
                m.attempted += 1;
                match value {
                    Ok(v) if v == *expected => {}
                    Ok(v) => {
                        m.failed += 1;
                        m.problem(format!("{cell:?}: {v:?} differs from first pass {expected:?}"));
                    }
                    Err(e) => {
                        m.failed += 1;
                        m.problem(e);
                    }
                }
            }
            m.layer_sample("circuit.parse_s", layers.parse);
            m.layer_sample("fusion.plan_s.greedy", layers.plan[0]);
            m.layer_sample("fusion.plan_s.cost", layers.plan[1]);
            m.layer_sample("fusion.plan_s.auto", layers.plan[2]);
            m.layer_sample("analyze.pre_run_s", layers.pre_run);
            m.layer_sample("backend.estimate_s", layers.estimate);
            m.layer_sample("dist.plan_s", layers.dist_plan);
            m.layer_sample("dist.estimate_s", layers.dist_estimate);
        }
        m.throughput_per_s = m.op_ms.len() as f64 / (busy_ms / 1e3);
        // The host takes the CPU away for a few percent to a third of the
        // time, in bursts, and a pass of a second always holds some of
        // that. A cell takes milliseconds, so among the passes of a run
        // each cell meets an undisturbed moment: the sum of the cells'
        // fastest times repeats within a few percent where the median
        // pass does not.
        m.latency_ms = Some(fastest_ms.iter().sum());

        let f = |strategy, max_fused_qubits| PlanOptions { strategy, max_fused_qubits };
        let headline = self.find(Flavor::Hip, Precision::Single, f(FusionStrategy::Auto, 4));
        m.layer_scalars.insert("modeled_s", headline.modeled_s);
        m.layer_scalars
            .insert("model_gap", (headline.predicted_s / headline.modeled_s - 1.0).abs());
        m.layer_scalars.insert("fusion.predicted_s", headline.predicted_s);
        m.layer_scalars.insert("fusion.fused_gates", headline.fused_gates as f64);
        for (metric, flavor, precision, budget) in [
            ("gpu.modeled_s.hip.f32.f4", Flavor::Hip, Precision::Single, 4),
            ("gpu.modeled_s.cuda.f32.f4", Flavor::Cuda, Precision::Single, 4),
            ("gpu.modeled_s.custatevec.f32.f4", Flavor::CuStateVec, Precision::Single, 4),
            ("gpu.modeled_s.cpu.f32.f4", Flavor::CpuAvx, Precision::Single, 4),
            ("gpu.modeled_s.hip.f64.f4", Flavor::Hip, Precision::Double, 4),
            ("gpu.modeled_s.hip.f32.f2", Flavor::Hip, Precision::Single, 2),
            ("gpu.modeled_s.hip.f32.f6", Flavor::Hip, Precision::Single, 6),
        ] {
            let value = self.find(flavor, precision, f(FusionStrategy::Greedy, budget));
            m.layer_scalars.insert(metric, value.modeled_s);
        }
        let widest = self.cells.len() - 1;
        m.layer_scalars.insert("dist.modeled_s.g8", self.expected[widest].modeled_s);
        m
    }

    fn probe(&mut self, out: &mut Outcome) {
        // The headline cell once more, for what a report carries beyond
        // its modeled time, and the widest sharded cell for its schedule.
        let circuit = parse_circuit(&self.texts[0]).expect("setup parsed this text");
        out.scalar("circuit.gates", circuit.ops.len() as f64, 1);
        out.scalar("circuit.hash_ns", time_median(201, || circuit.content_hash()) * 1e9, 201);
        let backend = SimBackend::new(Flavor::Hip);
        let auto = PlanOptions { strategy: FusionStrategy::Auto, max_fused_qubits: 4 };
        let plan = backend.plan_circuit(&circuit, &auto, Precision::Single);
        out.scalar("fusion.compression", plan.fused.stats().compression(), 1);
        let profiler = std::sync::Arc::new(qsim_trace::Profiler::new());
        let report = SimBackend::with_trace(Flavor::Hip, profiler.clone())
            .estimate_plan(&plan, Precision::Single)
            .expect("the grid estimated this cell");
        out.scalar("gpu.launches", report.launches_matching("") as f64, 1);
        out.scalar("gpu.kernel_H_us", report.time_us_matching("ApplyGateH"), 1);
        out.scalar("gpu.kernel_L_us", report.time_us_matching("ApplyGateL"), 1);
        out.scalar("gpu.fusion_us", report.fusion_seconds * 1e6, 1);
        let memcpy_us: f64 = profiler
            .spans()
            .iter()
            .filter(|s| s.kind != gpu_model::trace::SpanKind::Kernel)
            .map(|s| s.dur_us)
            .sum();
        out.scalar("gpu.memcpy_us", memcpy_us, profiler.len());

        let cell = *self.cells.last().expect("the grid is not empty");
        let circuit = parse_circuit(&self.texts[cell.circuit]).expect("setup parsed this text");
        let sharded = MultiGcdBackend::new(cell.flavor, cell.devices);
        let plan = sharded.plan_circuit(&circuit, &cell.plan, cell.precision);
        let dist = sharded.estimate(&plan.fused, cell.precision).expect("the grid estimated this");
        out.scalar(
            "dist.exchange_bytes",
            dist.exchanged_bytes_per_device as f64 * dist.devices as f64,
            1,
        );
        out.scalar("dist.swap_epochs", dist.swap_epochs as f64, 1);
    }
}
