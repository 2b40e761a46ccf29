//! `rqc22-cpu-f32` and `rqc22-hip-f64`: the paper's workload — a
//! 22-qubit, 14-cycle random quantum circuit taken from qsim text to
//! sampled bitstrings — at the largest size that still gives a run a
//! useful number of passes.
//!
//! The two variants run the same kernels differently. The `cpu` flavor
//! at f32 takes the cache-blocked sweep with 16-lane tiles; the `hip`
//! flavor at f64 takes the per-gate parallel path (`state_passes ==
//! fused_gates`), moves twice the bytes and charges every launch and
//! memcpy through `gpu-model`. A sweep or f32-lane gain that costs the
//! per-gate or f64 path shows on the second.

use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Instant;

use qsim_analyze::Analyzer;
use qsim_backends::{Flavor, PlanOptions, RunOptions, RunReport, SimBackend};
use qsim_circuit::parser::parse_circuit;
use qsim_core::matrix::GateMatrix;
use qsim_core::simd::SimdPlan;
use qsim_core::sweep::{SweepConfig, SweepExecutor};
use qsim_core::types::{Cplx, Float};
use qsim_core::{statespace, StateVector};
use qsim_fusion::FusionStrategy;
use qsim_trace::Profiler;
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::{time_median, Measured, ModeledCeiling, Workload};
use crate::inputs;
use crate::metrics::Outcome;
use crate::spans::Recorder;

pub const QUBITS: usize = 22;
/// Bitstrings sampled per pass.
pub const SAMPLES: usize = 1000;
/// The pass's plan: the cost planner at `-f 4`.
pub const PLAN: PlanOptions = PlanOptions { strategy: FusionStrategy::Cost, max_fused_qubits: 4 };
/// The reference's plan: the greedy fuser at `-f 2`, sweep off — a
/// different fusion, a different executor and a wider type than either
/// measured variant.
pub const REFERENCE_PLAN: PlanOptions =
    PlanOptions { strategy: FusionStrategy::Greedy, max_fused_qubits: 2 };
/// Lowest fidelity with the f64 reference a pass may have.
pub const MIN_FIDELITY_F32: f64 = 1.0 - 1e-5;
pub const MIN_FIDELITY_F64: f64 = 1.0 - 1e-10;
/// Passes a run makes even when the first ones overrun `--seconds`.
const MIN_PASSES: usize = 3;
/// Measurement and sampling seed of every pass: equal seeds make the
/// sampled bitstrings comparable across passes.
const RUN_SEED: u64 = 1;

/// Flavor and amplitude type of one variant.
pub trait Variant {
    type Amp: Float;
    const FLAVOR: Flavor;
    const MIN_FIDELITY: f64;
    /// The pass's `simulated_seconds` and model gap on the seed commit.
    const MODELED: ModeledCeiling;
}

pub struct CpuF32;
impl Variant for CpuF32 {
    type Amp = f32;
    const FLAVOR: Flavor = Flavor::CpuAvx;
    const MIN_FIDELITY: f64 = MIN_FIDELITY_F32;
    const MODELED: ModeledCeiling = ModeledCeiling {
        modeled_s: 0.03825835498213269,
        model_gap: 0.3204259685277361,
        isa: Some("avx512"),
    };
}

pub struct HipF64;
impl Variant for HipF64 {
    type Amp = f64;
    const FLAVOR: Flavor = Flavor::Hip;
    const MIN_FIDELITY: f64 = MIN_FIDELITY_F64;
    const MODELED: ModeledCeiling = ModeledCeiling {
        modeled_s: 0.021951246431025886,
        model_gap: 0.5326602031233554,
        isa: None,
    };
}

pub type Rqc22CpuF32 = Rqc22<CpuF32>;
pub type Rqc22HipF64 = Rqc22<HipF64>;

/// What must not change from one pass to the next.
#[derive(Debug, Clone, PartialEq)]
struct PassFacts {
    sample_digest: u64,
    modeled_s: f64,
    predicted_s: f64,
    fused_gates: usize,
    state_passes: u64,
}

pub struct Rqc22<V: Variant> {
    text: String,
    reference: StateVector<f64>,
    reference_norm: f64,
    first: Option<PassFacts>,
    passes: u64,
    variant: PhantomData<V>,
}

/// One pass's outputs, kept only until they are checked.
struct PassOutput<F: Float> {
    state: StateVector<F>,
    report: RunReport,
    /// Gates of the parsed circuit.
    gates: usize,
}

impl<V: Variant> Rqc22<V> {
    /// One timed pass: qsim text in, state and samples out. Returns the
    /// wall milliseconds and the outputs.
    fn pass(
        &mut self,
        rec: &mut Recorder,
        m: &mut Measured,
    ) -> Result<(f64, PassOutput<V::Amp>), String> {
        let op = self.passes;
        self.passes += 1;
        let precision = V::Amp::PRECISION;
        let root = rec.begin("harness", "pass", op);
        let t0 = Instant::now();

        let span = rec.begin("qsim-circuit", "parse_circuit", op);
        let circuit = parse_circuit(&self.text).map_err(|e| format!("parse: {e}"))?;
        rec.end(span);
        let t1 = Instant::now();

        let span = rec.begin("qsim-backends", "SimBackend::new", op);
        let backend = SimBackend::new(V::FLAVOR);
        rec.end(span);
        let t2 = Instant::now();

        let span = rec.begin("qsim-fusion", "plan_circuit", op);
        let plan = backend.plan_circuit(&circuit, &PLAN, precision);
        rec.end(span);
        let t3 = Instant::now();

        let span = rec.begin("qsim-analyze", "Analyzer::pre_run", op);
        let analysis =
            Analyzer::pre_run().analyze_plan(&plan.fused, Some(&circuit), backend.sweep_config());
        rec.end(span);
        let t4 = Instant::now();
        if analysis.has_errors() {
            return Err(format!("pre-run analysis rejected the plan:\n{}", analysis.render()));
        }

        let span = rec.begin("qsim-backends", "run_plan", op);
        let opts = RunOptions { seed: RUN_SEED, sample_count: SAMPLES };
        let (state, report) =
            backend.run_plan::<V::Amp>(&plan, &opts).map_err(|e| format!("run_plan: {e}"))?;
        rec.end(span);
        let t5 = Instant::now();
        rec.end(root);

        rec.count("circuit.gates", circuit.ops.len() as u64);
        rec.count("fusion.fused_gates", report.fused_gates as u64);
        rec.count("core.state_passes", report.state_passes);
        rec.count("gpu.launches", report.launches_matching(""));
        m.layer_sample("circuit.parse_s", (t1 - t0).as_secs_f64());
        m.layer_sample("fusion.plan_s.cost", (t3 - t2).as_secs_f64());
        m.layer_sample("analyze.pre_run_s", (t4 - t3).as_secs_f64());
        m.layer_sample("backend.run_s", report.wall_seconds);
        m.layer_sample("backend.setup_s", report.setup_seconds);
        Ok(((t5 - t0).as_secs_f64() * 1e3, PassOutput { state, report, gates: circuit.ops.len() }))
    }

    /// Check one pass's outputs against the reference and the first pass.
    fn check(&mut self, out: &PassOutput<V::Amp>, m: &mut Measured) -> bool {
        let mut ok = true;
        let (fidelity, norm) = fidelity_and_norm(&out.state, &self.reference, self.reference_norm);
        m.layer_sample("core.fidelity_err", (1.0 - fidelity).max(0.0));
        m.layer_sample("core.norm_err", (norm - 1.0).abs());
        if fidelity.is_nan() || fidelity < V::MIN_FIDELITY {
            m.problem(format!("fidelity {fidelity:.12} below {}", V::MIN_FIDELITY));
            ok = false;
        }
        if (norm - 1.0).abs() > 1e-3 {
            m.problem(format!("state norm {norm}"));
            ok = false;
        }
        let limit = 1u64 << QUBITS;
        if out.report.samples.len() != SAMPLES || out.report.samples.iter().any(|&s| s >= limit) {
            m.problem(format!("{} samples, expected {SAMPLES}", out.report.samples.len()));
            ok = false;
        }
        let facts = PassFacts {
            sample_digest: digest(&out.report.samples),
            modeled_s: out.report.simulated_seconds,
            predicted_s: out.report.predicted_cost_seconds,
            fused_gates: out.report.fused_gates,
            state_passes: out.report.state_passes,
        };
        match &self.first {
            None => self.first = Some(facts),
            Some(first) if *first != facts => {
                m.problem(format!("pass differs from the first: {facts:?} vs {first:?}"));
                ok = false;
            }
            Some(_) => {}
        }
        ok
    }
}

impl<V: Variant> Workload for Rqc22<V> {
    // A traced run's third holds seven to eighteen passes: no percentile
    // above the median has ten samples beyond it.
    const TAIL_PCT: f64 = 50.0;
    const RSS_OPS: usize = MIN_PASSES;
    const MODELED: Option<ModeledCeiling> = Some(V::MODELED);

    fn setup(seed: u64) -> Result<Self, String> {
        let text = inputs::rqc_text(QUBITS, seed);
        let circuit = parse_circuit(&text).map_err(|e| format!("parse: {e}"))?;
        let mut backend = SimBackend::new(Flavor::CpuAvx);
        backend.set_sweep_config(SweepConfig::disabled());
        let plan = backend.plan_circuit(&circuit, &REFERENCE_PLAN, qsim_core::Precision::Double);
        let (reference, _) = backend
            .run_plan::<f64>(&plan, &RunOptions::default())
            .map_err(|e| format!("reference run: {e}"))?;
        let reference_norm = statespace::norm_sqr(&reference);
        let mut workload =
            Rqc22 { text, reference, reference_norm, first: None, passes: 0, variant: PhantomData };
        // One warm-up pass: rayon's pool, the allocator's arenas and the
        // page cache of the binary are then what every timed pass sees.
        let mut scratch = Measured::default();
        let (_, out) = workload.pass(&mut Recorder::off(), &mut scratch)?;
        if !workload.check(&out, &mut scratch) {
            return Err(format!("warm-up pass failed its checks: {:?}", scratch.problems));
        }
        Ok(workload)
    }

    fn measure(&mut self, seconds: f64, rec: &mut Recorder) -> Measured {
        let mut m = Measured::default();
        let start = Instant::now();
        let mut busy_ms = 0.0;
        let mut last = None;
        while m.op_ms.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
            m.attempted += 1;
            match self.pass(rec, &mut m) {
                Ok((ms, out)) => {
                    busy_ms += ms;
                    m.op_ms.push(ms);
                    m.note_rss(m.op_ms.len(), Self::RSS_OPS);
                    if !self.check(&out, &mut m) {
                        m.failed += 1;
                    }
                    let gbps = computed_bytes_moved(&out.report) / out.report.wall_seconds / 1e9;
                    m.layer_sample("core.eff_gbps_computed", gbps);
                    last = Some((out.report, out.gates));
                }
                Err(e) => {
                    m.failed += 1;
                    m.problem(e);
                }
            }
        }
        m.throughput_per_s =
            if busy_ms > 0.0 { m.op_ms.len() as f64 / (busy_ms / 1e3) } else { 0.0 };
        // `check` holds every pass to the first one's counts and modeled
        // times, so the last report speaks for all of them.
        if let Some((r, gates)) = last {
            let s = &mut m.layer_scalars;
            s.insert("modeled_s", r.simulated_seconds);
            s.insert("model_gap", (r.predicted_cost_seconds / r.simulated_seconds - 1.0).abs());
            s.insert("fusion.predicted_s", r.predicted_cost_seconds);
            s.insert("fusion.fused_gates", r.fused_gates as f64);
            s.insert("fusion.compression", r.fusion_stats.compression());
            s.insert("circuit.gates", gates as f64);
            s.insert("core.sweep.passes", r.state_passes as f64);
            s.insert("core.sweep.passes_saved", r.passes_saved() as f64);
            s.insert("core.amp_updates", r.fused_gates as f64 * (1u64 << QUBITS) as f64);
            s.insert("core.bytes_moved_computed", computed_bytes_moved(&r));
            s.insert("gpu.launches", r.launches_matching("") as f64);
            s.insert("gpu.kernel_H_us", r.time_us_matching("ApplyGateH"));
            s.insert("gpu.kernel_L_us", r.time_us_matching("ApplyGateL"));
            s.insert("gpu.fusion_us", r.fusion_seconds * 1e6);
        }
        m
    }

    fn probe(&mut self, out: &mut Outcome) {
        let precision = V::Amp::PRECISION;
        let circuit = parse_circuit(&self.text).expect("setup parsed this text");
        out.scalar("circuit.hash_ns", time_median(201, || circuit.content_hash()) * 1e9, 201);

        let backend = SimBackend::new(V::FLAVOR);
        for (metric, strategy) in [
            ("fusion.plan_s.greedy", FusionStrategy::Greedy),
            ("fusion.plan_s.auto", FusionStrategy::Auto),
        ] {
            let opts = PlanOptions { strategy, ..PLAN };
            out.scalar(
                metric,
                time_median(5, || backend.plan_circuit(&circuit, &opts, precision)),
                5,
            );
        }
        let plan = backend.plan_circuit(&circuit, &PLAN, precision);
        out.scalar(
            "backend.estimate_s",
            time_median(5, || SimBackend::new(V::FLAVOR).estimate_plan(&plan, precision)),
            5,
        );

        // Modeled memcpy time and the cost of the qsim-trace sink: the
        // same pass with and without a `Profiler` attached, alternating,
        // compared on the faster of two repetitions (the host is noisy
        // and a 2 % effect drowns in a mean).
        if V::FLAVOR != Flavor::CpuAvx {
            let opts = RunOptions { seed: RUN_SEED, sample_count: SAMPLES };
            let profiler = Arc::new(Profiler::new());
            let (mut plain_s, mut traced_s) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..2 {
                let t = Instant::now();
                let _ = std::hint::black_box(
                    SimBackend::new(V::FLAVOR).run_plan::<V::Amp>(&plan, &opts),
                );
                plain_s = plain_s.min(t.elapsed().as_secs_f64());
                profiler.clear();
                let t = Instant::now();
                let _ = std::hint::black_box(
                    SimBackend::with_trace(V::FLAVOR, profiler.clone())
                        .run_plan::<V::Amp>(&plan, &opts),
                );
                traced_s = traced_s.min(t.elapsed().as_secs_f64());
            }
            out.scalar("trace.overhead_frac", traced_s / plain_s - 1.0, 2);
            let memcpy_us: f64 = profiler
                .spans()
                .iter()
                .filter(|s| s.kind != gpu_model::trace::SpanKind::Kernel)
                .map(|s| s.dur_us)
                .sum();
            out.scalar("gpu.memcpy_us", memcpy_us, profiler.len());
        }

        // One more run, keeping the state: sampling on its own, then the
        // plan's block-local gates through the sweep and one by one.
        let (mut state, _) = backend
            .run_plan::<V::Amp>(&plan, &RunOptions::default())
            .expect("the measured passes ran this plan");
        out.scalar(
            "core.sample_s",
            time_median(5, || {
                statespace::sample(&state, SAMPLES, &mut StdRng::seed_from_u64(RUN_SEED))
            }),
            5,
        );
        let sweep = SweepExecutor::new(SweepConfig::default());
        let block_qubits = sweep.config().block_qubits(QUBITS);
        let local: Vec<(Vec<usize>, GateMatrix<V::Amp>)> = plan
            .fused
            .unitaries()
            .filter(|g| g.is_block_local(block_qubits))
            .map(|g| (g.qubits.clone(), g.matrix_as::<V::Amp>()))
            .collect();
        let amps = state.amplitudes_mut();
        out.scalar(
            "core.sweep.run_s",
            time_median(2, || sweep.apply_run(amps, local.iter().map(|(q, m)| (q.as_slice(), m)))),
            local.len(),
        );
        out.scalar(
            "core.pergate.run_s",
            time_median(2, || {
                for (qubits, matrix) in &local {
                    apply_one(amps, QUBITS, qubits, &[], matrix);
                }
            }),
            local.len(),
        );
        drop(state);

        kernel_probes::<f32>(out);
        kernel_probes::<f64>(out);
    }
}

/// Bytes a run moved, computed: one read and one write of the whole state
/// per pass over it. Cache misses inside a pass are not counted.
fn computed_bytes_moved(report: &RunReport) -> f64 {
    2.0 * report.state_bytes as f64 * report.state_passes as f64
}

/// `|⟨reference|state⟩|² / (‖reference‖² ‖state‖²)` and `‖state‖²`.
fn fidelity_and_norm<F: Float>(
    state: &StateVector<F>,
    reference: &StateVector<f64>,
    reference_norm: f64,
) -> (f64, f64) {
    let (mut re, mut im, mut norm) = (0.0f64, 0.0f64, 0.0f64);
    for (a, r) in state.amplitudes().iter().zip(reference.amplitudes()) {
        let (ar, ai) = (a.re.to_f64(), a.im.to_f64());
        re += r.re * ar + r.im * ai;
        im += r.re * ai - r.im * ar;
        norm += ar * ar + ai * ai;
    }
    ((re * re + im * im) / (reference_norm * norm), norm)
}

fn digest(samples: &[u64]) -> u64 {
    let bytes: Vec<u8> = samples.iter().flat_map(|s| s.to_le_bytes()).collect();
    qsim_core::stablehash::hash_bytes(&bytes)
}

/// Apply one gate to a full state through the lane kernels, all cores.
fn apply_one<F: Float>(
    amps: &mut [Cplx<F>],
    n: usize,
    qubits: &[usize],
    controls: &[usize],
    matrix: &GateMatrix<F>,
) {
    let all_set = (1usize << controls.len()) - 1;
    match SimdPlan::new(n, qubits, controls, all_set, matrix) {
        Some(plan) => plan.apply_par(amps),
        // Scalar ISA: the strided kernels are the only path there is.
        None => qsim_core::kernels::apply_controlled_gate_slice_par(
            amps, qubits, controls, all_set, matrix,
        ),
    }
}

/// `H^{⊗k}` times a global phase: unitary, so amplitudes stay bounded
/// under repetition, and fully complex, so both FMA chains do work.
fn dense_matrix<F: Float>(k: usize) -> GateMatrix<F> {
    let dim = 1usize << k;
    let scale = 1.0 / (dim as f64).sqrt();
    let (sin, cos) = 0.3f64.sin_cos();
    let mut m = GateMatrix::<F>::zeros(dim);
    for r in 0..dim {
        for c in 0..dim {
            let sign = if (r & c).count_ones() % 2 == 0 { scale } else { -scale };
            m.set(r, c, Cplx::from_f64(sign * cos, sign * sin));
        }
    }
    m
}

/// A phase per basis state.
fn diag_matrix<F: Float>(k: usize) -> GateMatrix<F> {
    let dim = 1usize << k;
    let mut m = GateMatrix::<F>::zeros(dim);
    for r in 0..dim {
        let (sin, cos) = (0.4 * (r + 1) as f64).sin_cos();
        m.set(r, r, Cplx::from_f64(cos, sin));
    }
    m
}

/// Nanoseconds per amplitude of each lane-kernel class on a state of
/// the workload's own size, which does not fit the per-core caches: the
/// number is bandwidth and arithmetic together, as in a pass.
fn kernel_probes<F: Float>(out: &mut Outcome) {
    // ([f32 metric, f64 metric], targets, controls, diagonal). Qubits
    // below log2(lanes) are permuted inside a SIMD tile; higher ones are
    // strided.
    type Case = ([&'static str; 2], &'static [usize], &'static [usize], bool);
    const CASES: [Case; 7] = [
        (["core.kernel.low1_ns_per_amp.f32", "core.kernel.low1_ns_per_amp.f64"], &[0], &[], false),
        (
            ["core.kernel.low2_ns_per_amp.f32", "core.kernel.low2_ns_per_amp.f64"],
            &[0, 1],
            &[],
            false,
        ),
        (
            ["core.kernel.high1_ns_per_amp.f32", "core.kernel.high1_ns_per_amp.f64"],
            &[12],
            &[],
            false,
        ),
        (
            ["core.kernel.high2_ns_per_amp.f32", "core.kernel.high2_ns_per_amp.f64"],
            &[11, 13],
            &[],
            false,
        ),
        (
            ["core.kernel.mixed2_ns_per_amp.f32", "core.kernel.mixed2_ns_per_amp.f64"],
            &[1, 12],
            &[],
            false,
        ),
        (
            ["core.kernel.diag_ns_per_amp.f32", "core.kernel.diag_ns_per_amp.f64"],
            &[11, 13],
            &[],
            true,
        ),
        (
            ["core.kernel.ctrl_ns_per_amp.f32", "core.kernel.ctrl_ns_per_amp.f64"],
            &[12],
            &[13],
            false,
        ),
    ];
    let precision = usize::from(F::PRECISION == qsim_core::Precision::Double);
    let mut state = StateVector::<F>::new(QUBITS);
    state.set_uniform_state();
    let amps = state.amplitudes_mut();
    for (names, qubits, controls, diagonal) in CASES {
        let matrix =
            if diagonal { diag_matrix::<F>(qubits.len()) } else { dense_matrix::<F>(qubits.len()) };
        let seconds = time_median(3, || apply_one(amps, QUBITS, qubits, controls, &matrix));
        out.scalar(names[precision], seconds * 1e9 / (1u64 << QUBITS) as f64, 3);
    }
}
