//! The single-device backend: a flavor (launch policy) bound to a modeled
//! device, how circuits are planned for it, and the entry points —
//! [`SimBackend::estimate`], [`SimBackend::run_with`] and
//! [`SimBackend::run_batch`](crate::batch_run) — into the one traversal
//! that executes a fused circuit on it ([`crate::walker`]).

use gpu_model::runtime::{Gpu, StreamId};
use gpu_model::specs::DeviceSpec;
use gpu_model::trace::TraceSink;
use gpu_model::GpuError;
use qsim_core::cancel::{CancelCause, CancelToken};
use qsim_core::sweep::{SweepConfig, SweepExecutor};
use qsim_core::types::{Float, Precision};
use qsim_core::{AlignedAmps, StateVector};
use qsim_fusion::{
    FusedCircuit, FusionCostModel, FusionStats, FusionStrategy, LaunchCostModel, LaunchPolicy,
};

use crate::flavor::Flavor;
use crate::placement::Placer;
use crate::plan::FusionPlan;
use crate::report::{RunOptions, RunReport};

/// How a source circuit is planned into a fused circuit for a backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanOptions {
    /// Fusion strategy (see [`FusionStrategy`]).
    pub strategy: FusionStrategy,
    /// Fusion budget for `Greedy` and `Cost`; `Auto` sweeps its own range
    /// and ignores it.
    pub max_fused_qubits: usize,
}

impl Default for PlanOptions {
    /// qsim's defaults: the greedy fuser at `-f 2`.
    fn default() -> Self {
        PlanOptions { strategy: FusionStrategy::Greedy, max_fused_qubits: 2 }
    }
}

/// Modeled host-side cost of the gate-fusion transpiler, µs per source
/// gate and per emitted fused gate. Calibrated so fusion lands where the
/// paper reports it: "< 2 % of the total execution time" for RQC-30.
const FUSION_US_PER_SOURCE_GATE: f64 = 25.0;
const FUSION_US_PER_FUSED_GATE: f64 = 12.0;

/// Backend failure.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendError {
    /// The modeled runtime refused an operation (OOM, bad launch, …).
    Gpu(GpuError),
    /// The fused circuit is malformed for this backend.
    InvalidCircuit(String),
    /// The pre-run static analysis found error-severity diagnostics; the
    /// plan was rejected before any device memory was allocated.
    AnalysisRejected(Vec<qsim_core::diag::Diagnostic>),
    /// The run's [`CancelToken`] fired (explicitly or by deadline) and the
    /// loop unwound at a gate-application boundary. `at_op` is the index
    /// of the first fused op that did **not** complete.
    Cancelled {
        /// Why the token fired.
        cause: CancelCause,
        /// Index into `fused.ops` of the first unexecuted operation.
        at_op: usize,
    },
}

impl std::fmt::Display for BackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendError::Gpu(e) => write!(f, "device error: {e}"),
            BackendError::InvalidCircuit(m) => write!(f, "invalid circuit: {m}"),
            BackendError::AnalysisRejected(diags) => {
                write!(
                    f,
                    "plan rejected by pre-run analysis:\n{}",
                    qsim_core::diag::render_list(diags)
                )
            }
            BackendError::Cancelled { cause, at_op } => {
                let why = match cause {
                    CancelCause::Requested => "cancelled",
                    CancelCause::DeadlineExceeded => "deadline exceeded",
                };
                write!(f, "run {why} at fused op {at_op}")
            }
        }
    }
}

impl std::error::Error for BackendError {}

impl From<GpuError> for BackendError {
    fn from(e: GpuError) -> Self {
        BackendError::Gpu(e)
    }
}

/// Per-run execution context beyond [`RunOptions`]: the service-layer
/// knobs (recycled state buffer, cooperative cancellation) that a one-shot
/// CLI run never needs. [`SimBackend::run`] uses the default context.
#[derive(Debug, Default)]
pub struct RunContext<F: Float> {
    /// A recycled amplitude buffer of exactly `2^n` elements to use as the
    /// state vector instead of allocating a fresh one (the buffer-pool
    /// fast path: skips the allocate-and-fault of up to 16 GiB per
    /// 30-qubit run). Contents are reinitialised to `|0…0⟩`; on completion
    /// the buffer comes back through `StateVector::into_amplitudes`, on
    /// failure through [`RunFailure::buffer`].
    pub reuse_buffer: Option<AlignedAmps<F>>,
    /// Cooperative cancellation, polled at every gate-application and
    /// sweep-block boundary. `None` = uncancellable.
    pub cancel: Option<CancelToken>,
}

/// A failed [`SimBackend::run_with`]: the error plus, when the state
/// buffer had already been acquired, the recovered allocation so the
/// caller's pool can recycle it instead of losing it — the contract that
/// lets a cancelled or timed-out job release its buffer back to the pool.
#[derive(Debug)]
pub struct RunFailure<F: Float> {
    /// What went wrong.
    pub error: BackendError,
    /// The state allocation, recovered when the failure happened after
    /// buffer acquisition (contents are garbage).
    pub buffer: Option<AlignedAmps<F>>,
}

/// A backend: a flavor (launch policy) bound to a modeled device.
pub struct SimBackend {
    pub(crate) flavor: Flavor,
    pub(crate) gpu: Gpu,
    /// Optional override of [`Flavor::low_qubit_byte_overhead`], for the
    /// "redesigned ApplyGateL" ablation (what the paper calls the
    /// "significant algorithmic overhaul" that 64-thread L blocks would
    /// need).
    pub(crate) low_overhead_override: Option<f64>,
    /// Cache-blocked sweep executor for the CPU flavor: runs of
    /// consecutive low-qubit fused gates apply to cache-sized blocks in a
    /// single pass over the state (see [`qsim_core::sweep`]). GPU flavors
    /// model per-gate kernels and ignore it.
    pub(crate) sweep: SweepExecutor,
    /// The stream matrix uploads ride, created with the device so a
    /// long-lived backend's timeline does not grow per walk.
    pub(crate) copy_stream: StreamId,
}

impl SimBackend {
    /// Backend on the flavor's default device (the paper's hardware).
    pub fn new(flavor: Flavor) -> Self {
        Self::with_spec(flavor, flavor.default_spec())
    }

    /// Backend on a custom device spec (for ablations).
    pub fn with_spec(flavor: Flavor, spec: DeviceSpec) -> Self {
        Self::on_gpu(flavor, Gpu::new(spec))
    }

    /// Backend with rocprof-style tracing attached.
    pub fn with_trace(flavor: Flavor, sink: std::sync::Arc<dyn TraceSink>) -> Self {
        Self::with_spec_and_trace(flavor, flavor.default_spec(), sink)
    }

    /// Backend with a custom spec *and* tracing.
    pub fn with_spec_and_trace(
        flavor: Flavor,
        spec: DeviceSpec,
        sink: std::sync::Arc<dyn TraceSink>,
    ) -> Self {
        Self::on_gpu(flavor, Gpu::with_trace(spec, sink))
    }

    fn on_gpu(flavor: Flavor, gpu: Gpu) -> Self {
        let copy_stream = gpu.create_stream();
        SimBackend {
            flavor,
            gpu,
            low_overhead_override: None,
            sweep: SweepExecutor::new(SweepConfig::default()),
            copy_stream,
        }
    }

    /// Override the per-low-qubit extra-traffic factor of L-class kernels
    /// (ablation knob; see [`Flavor::low_qubit_byte_overhead`]).
    pub fn set_low_qubit_byte_overhead(&mut self, overhead: Option<f64>) {
        self.low_overhead_override = overhead;
    }

    /// Configure the cache-blocked sweep (CPU flavor only; GPU flavors
    /// model per-gate kernels regardless).
    pub fn set_sweep_config(&mut self, config: SweepConfig) {
        self.sweep = SweepExecutor::new(config);
    }

    /// The active sweep configuration.
    pub fn sweep_config(&self) -> SweepConfig {
        *self.sweep.config()
    }

    /// How this backend launches gate kernels at `precision`: the
    /// flavor's policy under the configured sweep (only the CPU flavor
    /// executes blocked sweeps) and any active
    /// [`SimBackend::set_low_qubit_byte_overhead`] ablation. The walker
    /// charges every gate launch through it and [`SimBackend::cost_model`]
    /// prices plans with it.
    pub fn launch_policy(&self, precision: Precision) -> LaunchPolicy {
        self.flavor.launch_policy(precision, *self.sweep.config(), self.low_overhead_override)
    }

    /// The underlying modeled device.
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    /// This backend's flavor.
    pub fn flavor(&self) -> Flavor {
        self.flavor
    }

    /// Modeled host-side fusion cost for this circuit, µs.
    pub(crate) fn fusion_cost_us(stats: &FusionStats) -> f64 {
        stats.source_gates as f64 * FUSION_US_PER_SOURCE_GATE
            + stats.fused_gates as f64 * FUSION_US_PER_FUSED_GATE
    }

    /// The fusion cost model matching this backend's launch accounting:
    /// each pass priced as the walker will charge it, on this device under
    /// [`Flavor::launch_policy`] (including the configured sweep and any
    /// active [`SimBackend::set_low_qubit_byte_overhead`] ablation).
    pub fn cost_model(&self, precision: Precision) -> Box<dyn FusionCostModel> {
        let (spec, policy) = (self.gpu.spec().clone(), self.launch_policy(precision));
        Box::new(LaunchCostModel { spec, policy, precision })
    }

    /// Plan a source circuit for this backend: fuse under the requested
    /// strategy, priced by [`SimBackend::cost_model`], and check it.
    pub fn plan_circuit(
        &self,
        circuit: &qsim_circuit::Circuit,
        opts: &PlanOptions,
        precision: Precision,
    ) -> FusionPlan {
        let model = self.cost_model(precision);
        let plan = qsim_fusion::plan(circuit, opts.strategy, opts.max_fused_qubits, model.as_ref());
        FusionPlan::check(plan, self.launch_policy(precision).sweep)
    }

    /// A pre-fused circuit as an unpriced plan, checked for this backend.
    pub fn check(&self, fused: &FusedCircuit, precision: Precision) -> FusionPlan {
        FusionPlan::check(fused.clone().into(), self.launch_policy(precision).sweep)
    }

    /// Run a planned circuit; the report carries the plan's strategy and
    /// predicted cost alongside the realized timings.
    pub fn run_plan<F: Float>(
        &self,
        plan: &FusionPlan,
        opts: &RunOptions,
    ) -> Result<(StateVector<F>, RunReport), BackendError> {
        let mut subs = self.run_gang(plan, vec![(*opts, RunContext::default())]);
        subs.pop().expect("a walk resolves every state it was handed").map_err(|f| f.error)
    }

    /// Dry-run a planned circuit (see [`SimBackend::estimate`]); the
    /// report carries the plan's strategy and predicted cost.
    pub fn estimate_plan(
        &self,
        plan: &FusionPlan,
        precision: Precision,
    ) -> Result<RunReport, BackendError> {
        self.estimate_placed(plan, precision, None)
    }

    /// [`SimBackend::estimate_plan`] over the placement `placer` builds
    /// (`None`: on this one device).
    pub fn estimate_placed(
        &self,
        plan: &FusionPlan,
        precision: Precision,
        placer: Option<&dyn Placer>,
    ) -> Result<RunReport, BackendError> {
        match precision {
            Precision::Single => self.walk::<f32>(plan, None, (None, 1), placer).report,
            Precision::Double => self.walk::<f64>(plan, None, (None, 1), placer).report,
        }
    }

    /// **Dry-run**: drive the device model over the fused circuit without
    /// allocating the state vector or computing amplitudes, returning the
    /// modeled timing report.
    ///
    /// This is how the benchmark harnesses evaluate the paper's 30-qubit
    /// configurations: a 30-qubit state (8–16 GiB) fits the modeled GPUs
    /// but is unnecessary (and slow) to compute when only the timing model
    /// is of interest. It is the same walk `run` makes, handed no states,
    /// so the two traverse identical launch sequences by construction.
    pub fn estimate(
        &self,
        fused: &FusedCircuit,
        precision: Precision,
    ) -> Result<RunReport, BackendError> {
        self.estimate_plan(&self.check(fused, precision), precision)
    }

    /// Run a fused circuit at precision `F` from `|0…0⟩`, returning the
    /// final state and the run report. Equivalent to
    /// [`SimBackend::run_with`] under the default context (fresh buffer,
    /// no cancellation).
    pub fn run<F: Float>(
        &self,
        fused: &FusedCircuit,
        opts: &RunOptions,
    ) -> Result<(StateVector<F>, RunReport), BackendError> {
        self.run_with(fused, opts, RunContext::default()).map_err(|f| f.error)
    }

    /// Run a fused circuit with service-layer controls: an optionally
    /// recycled state buffer and a cooperative [`CancelToken`] polled at
    /// every gate-application boundary (and, on the CPU flavor, at every
    /// sweep cache block). On failure the state allocation rides back in
    /// [`RunFailure::buffer`] whenever it was acquired, so callers can
    /// recycle it. The walk is a gang of one.
    pub fn run_with<F: Float>(
        &self,
        fused: &FusedCircuit,
        opts: &RunOptions,
        ctx: RunContext<F>,
    ) -> Result<(StateVector<F>, RunReport), RunFailure<F>> {
        let mut subs = self.run_gang(&self.check(fused, F::PRECISION), vec![(*opts, ctx)]);
        subs.pop().expect("a walk resolves every state it was handed")
    }
}

/// The worker-pool contract: a `SimBackend` must be shareable across the
/// service's worker threads. All interior state is immutable after
/// construction or behind the device model's own synchronization, so this
/// holds by composition — these assertions turn any future regression
/// (e.g. an `Rc` or `Cell` slipping into a field) into a compile error.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SimBackend>();
    assert_send_sync::<RunContext<f32>>();
    assert_send_sync::<RunContext<f64>>();
    assert_send_sync::<RunFailure<f32>>();
    assert_send_sync::<RunFailure<f64>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use qsim_circuit::library;
    use qsim_circuit::{generate_rqc, RqcOptions};
    use qsim_core::kernels::{classify_gate, KernelClass};
    use qsim_core::types::Cplx;
    use qsim_core::GateMatrix;
    use qsim_fusion::{fuse, FusedOp};

    fn run_flavor<F: Float>(flavor: Flavor, fused: &FusedCircuit) -> (StateVector<F>, RunReport) {
        SimBackend::new(flavor).run::<F>(fused, &RunOptions::default()).unwrap()
    }

    #[test]
    fn bell_state_on_every_flavor() {
        let fused = fuse(&library::bell(), 2);
        let h = std::f64::consts::FRAC_1_SQRT_2;
        for flavor in Flavor::all() {
            let (state, report) = run_flavor::<f64>(flavor, &fused);
            assert!((state.amplitude(0).re - h).abs() < 1e-12, "{flavor:?}");
            assert!((state.amplitude(3).re - h).abs() < 1e-12, "{flavor:?}");
            assert!(report.simulated_seconds > 0.0);
            assert_eq!(report.backend, flavor.label());
        }
    }

    #[test]
    fn all_flavors_agree_on_rqc() {
        let circuit = generate_rqc(&RqcOptions::for_qubits(10, 6, 7));
        let fused = fuse(&circuit, 3);
        let (reference, _) = run_flavor::<f64>(Flavor::CpuAvx, &fused);
        for flavor in [Flavor::Cuda, Flavor::CuStateVec, Flavor::Hip] {
            let (state, _) = run_flavor::<f64>(flavor, &fused);
            let diff = reference.max_abs_diff(&state);
            assert!(diff < 1e-13, "{flavor:?} diverges by {diff}");
        }
    }

    #[test]
    fn single_and_double_precision_agree() {
        let circuit = generate_rqc(&RqcOptions::for_qubits(9, 5, 3));
        let fused = fuse(&circuit, 4);
        let (s32, r32) = run_flavor::<f32>(Flavor::Hip, &fused);
        let (s64, r64) = run_flavor::<f64>(Flavor::Hip, &fused);
        assert!(s64.max_abs_diff(&s32) < 1e-4);
        assert_eq!(r32.state_bytes * 2, r64.state_bytes);
    }

    #[test]
    fn kernel_split_matches_gate_classes() {
        let circuit = generate_rqc(&RqcOptions::for_qubits(12, 6, 1));
        let fused = fuse(&circuit, 2);
        let expected_low =
            fused.unitaries().filter(|g| classify_gate(&g.qubits) == KernelClass::Low).count()
                as u64;
        let expected_high = fused.num_unitaries() as u64 - expected_low;
        let (_, report) = run_flavor::<f32>(Flavor::Hip, &fused);
        assert_eq!(report.launches_matching("ApplyGateL_Kernel"), expected_low);
        assert_eq!(report.launches_matching("ApplyGateH_Kernel"), expected_high);
        assert_eq!(report.launches_matching("SetStateKernel"), 1);
    }

    #[test]
    fn measurement_gates_collapse_and_report() {
        use qsim_circuit::gates::GateKind;
        use qsim_circuit::Circuit;

        let mut c = Circuit::new(2);
        c.add(0, GateKind::H, &[0]);
        c.add(1, GateKind::Cnot, &[0, 1]);
        c.add(2, GateKind::Measurement, &[0, 1]);
        let fused = fuse(&c, 2);
        for seed in 0..20 {
            let (state, report) = SimBackend::new(Flavor::Cuda)
                .run::<f64>(&fused, &RunOptions { seed, sample_count: 0 })
                .unwrap();
            assert_eq!(report.measurements.len(), 1);
            let (qs, outcome) = &report.measurements[0];
            assert_eq!(qs, &vec![0, 1]);
            assert!(*outcome == 0 || *outcome == 3, "Bell measurement gave {outcome}");
            // State is collapsed onto the measured basis state.
            assert!((state.amplitude(*outcome).abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn oom_on_too_large_state() {
        // 31-qubit double state = 32 GiB... the A100 model has 40 GiB, so
        // use a shrunken device instead of allocating real memory.
        let mut spec = Flavor::Cuda.default_spec();
        spec.memory_bytes = 1 << 20; // 1 MiB
        let backend = SimBackend::with_spec(Flavor::Cuda, spec);
        let fused = fuse(&library::ghz(17), 2); // 2^17 × 16 B = 2 MiB
        match backend.run::<f64>(&fused, &RunOptions::default()) {
            Err(BackendError::Gpu(GpuError::OutOfMemory { .. })) => {}
            other => panic!("expected OOM, got {:?}", other.map(|(_, r)| r.backend)),
        }
    }

    /// Fused RQC at the paper's 30-qubit scale — `estimate()` only, no
    /// functional execution.
    fn paper_fused(max_f: usize) -> FusedCircuit {
        let circuit = generate_rqc(&RqcOptions::paper_q30());
        fuse(&circuit, max_f)
    }

    #[test]
    fn fusion_cost_is_small_fraction_at_paper_scale() {
        let fused = paper_fused(4);
        let report = SimBackend::new(Flavor::Hip).estimate(&fused, Precision::Single).unwrap();
        assert!(report.fusion_seconds > 0.0);
        assert!(
            report.fusion_fraction() < 0.02,
            "paper: fusion < 2 % of total; model gives {}",
            report.fusion_fraction()
        );
    }

    #[test]
    fn hip_slower_than_cuda_at_fusion_four() {
        let fused = paper_fused(4);
        let cuda = SimBackend::new(Flavor::Cuda).estimate(&fused, Precision::Single).unwrap();
        let hip = SimBackend::new(Flavor::Hip).estimate(&fused, Precision::Single).unwrap();
        assert!(
            hip.simulated_seconds > cuda.simulated_seconds,
            "hip {} vs cuda {}",
            hip.simulated_seconds,
            cuda.simulated_seconds
        );
    }

    #[test]
    fn cpu_much_slower_than_gpu_at_paper_scale() {
        let fused = paper_fused(4);
        let cpu = SimBackend::new(Flavor::CpuAvx).estimate(&fused, Precision::Single).unwrap();
        let hip = SimBackend::new(Flavor::Hip).estimate(&fused, Precision::Single).unwrap();
        let speedup = cpu.simulated_seconds / hip.simulated_seconds;
        assert!(
            (5.0..=12.0).contains(&speedup),
            "paper: GPU 7-9× faster than CPU; model gives {speedup}"
        );
    }

    #[test]
    fn non_unitary_plan_rejected_before_allocation() {
        use qsim_fusion::FusedGate;

        // A hand-built plan carrying a non-unitary "custom gate".
        let mut matrix = GateMatrix::<f64>::identity(2);
        matrix.set(0, 0, Cplx::new(2.0, 0.0));
        let fused = FusedCircuit {
            num_qubits: 20,
            ops: vec![FusedOp::Unitary(FusedGate::new(vec![0], matrix, 1, (0, 0)))],
            max_fused_qubits: 2,
        };
        // The rejection, finding for finding, as the walker's own analyser
        // call reported it before plans carried their verdicts.
        let expected = BackendError::AnalysisRejected(vec![qsim_core::diag::Diagnostic::error(
            "QP0205",
            qsim_core::diag::Span::op(0, 0),
            "fused product of 1 gate(s) on qubits [0] is not unitary within 1e-8",
        )
        .with_help("the plan would not preserve the state norm; refuse to execute it")]);
        let backend = SimBackend::new(Flavor::Hip);
        let plan = FusionPlan::check(fused.clone().into(), SweepConfig::disabled());
        let rejections = [
            backend.run::<f64>(&fused, &RunOptions::default()).map(|(_, r)| r),
            backend.estimate(&fused, Precision::Double),
            backend.run_plan::<f64>(&plan, &RunOptions::default()).map(|(_, r)| r),
            backend.estimate_plan(&plan, Precision::Double),
        ];
        for rejection in rejections {
            assert_eq!(rejection, Err(expected.clone()));
        }
        // The gate fired before hipMalloc: the modeled device never
        // allocated a byte.
        let (allocated, peak, _) = backend.gpu().memory_usage();
        assert_eq!((allocated, peak), (0, 0));
    }

    /// A plan's report is the one a bare run of its fused circuit makes,
    /// plus what the planner decided: strategy and predicted cost.
    #[test]
    fn run_plan_is_run_of_the_fused_circuit_plus_the_plans_stamp() {
        let circuit = generate_rqc(&RqcOptions::for_qubits(11, 6, 5));
        // A fresh device per walk: modeled durations are differences of
        // timeline instants, which round by where the timeline stands.
        let cpu = || SimBackend::new(Flavor::CpuAvx);
        let opts = PlanOptions { strategy: FusionStrategy::Cost, max_fused_qubits: 4 };
        let plan = cpu().plan_circuit(&circuit, &opts, Precision::Double);
        let run = RunOptions { seed: 3, sample_count: 50 };
        let (state, report) = cpu().run_plan::<f64>(&plan, &run).unwrap();
        let (bare_state, bare) = cpu().run::<f64>(&plan.fused, &run).unwrap();
        assert_eq!(state.amplitudes(), bare_state.amplitudes());
        assert_eq!(
            (report.fusion_strategy.as_str(), bare.fusion_strategy.as_str()),
            ("cost", "greedy")
        );
        assert!(report.predicted_cost_seconds > 0.0 && bare.predicted_cost_seconds == 0.0);
        // Host clocks aside, nothing else differs.
        let stamped = RunReport {
            fusion_strategy: report.fusion_strategy.clone(),
            predicted_cost_seconds: report.predicted_cost_seconds,
            wall_seconds: report.wall_seconds,
            setup_seconds: report.setup_seconds,
            ..bare
        };
        assert_eq!(stamped, report);
    }

    /// Changing the sweep after planning is legal: the plan is checked
    /// again under the sweep it now runs, and runs as a plan made after
    /// the change does.
    #[test]
    fn a_plan_checked_under_another_sweep_runs_as_a_fresh_one() {
        use qsim_circuit::gates::GateKind;

        // An H·H pair on a qubit of its own fuses to an identity pass: the
        // verdict carries QP0214.
        let mut circuit = qsim_circuit::Circuit::new(13);
        circuit.ops = generate_rqc(&RqcOptions::for_qubits(12, 6, 9)).ops;
        circuit.push(GateKind::H, &[12]);
        circuit.push(GateKind::H, &[12]);
        let opts = PlanOptions { strategy: FusionStrategy::Greedy, max_fused_qubits: 3 };
        let sweep = SweepConfig::with_block_amps(256);
        let blocked = || {
            let mut backend = SimBackend::new(Flavor::CpuAvx);
            backend.set_sweep_config(sweep);
            backend
        };
        let mut backend = SimBackend::new(Flavor::CpuAvx);
        let stale = backend.plan_circuit(&circuit, &opts, Precision::Double);
        backend.set_sweep_config(sweep);
        let fresh = blocked().plan_circuit(&circuit, &opts, Precision::Double);
        assert_eq!(stale.fused, fresh.fused);
        assert_eq!(stale.verdict(sweep), fresh.verdict(sweep));

        let run = RunOptions { seed: 11, sample_count: 20 };
        let (stale_state, stale_report) = backend.run_plan::<f64>(&stale, &run).unwrap();
        let (fresh_state, fresh_report) = blocked().run_plan::<f64>(&fresh, &run).unwrap();
        assert_eq!(stale_state.amplitudes(), fresh_state.amplitudes());
        assert!(fresh_report.analysis_warnings.iter().any(|w| w.contains("QP0214")));
        // The greedy plan's prediction is priced under the sweep it was
        // made with; the walk is the new sweep's.
        let repriced = RunReport {
            predicted_cost_seconds: fresh_report.predicted_cost_seconds,
            wall_seconds: fresh_report.wall_seconds,
            setup_seconds: fresh_report.setup_seconds,
            ..stale_report
        };
        assert_eq!(repriced, fresh_report);
    }

    #[test]
    fn analysis_warnings_flow_into_report() {
        use qsim_circuit::gates::GateKind;
        use qsim_circuit::Circuit;

        // H·H fuses to the identity: a warning-severity finding (QP0214)
        // that must not reject the run, only annotate the report.
        let mut c = Circuit::new(1);
        c.add(0, GateKind::H, &[0]);
        c.add(1, GateKind::H, &[0]);
        let fused = fuse(&c, 2);
        let (state, report) =
            SimBackend::new(Flavor::Cuda).run::<f64>(&fused, &RunOptions::default()).unwrap();
        assert!((state.amplitude(0).re - 1.0).abs() < 1e-12);
        assert_eq!(report.analysis_warnings.len(), 1, "{:?}", report.analysis_warnings);
        assert!(report.analysis_warnings[0].contains("QP0214"));
        // A clean plan reports no warnings.
        let (_, clean) = SimBackend::new(Flavor::Cuda)
            .run::<f64>(&fuse(&library::bell(), 2), &RunOptions::default())
            .unwrap();
        assert!(clean.analysis_warnings.is_empty());
    }

    #[test]
    fn invalid_circuit_rejected() {
        let fused = FusedCircuit { num_qubits: 0, ops: vec![], max_fused_qubits: 2 };
        assert!(matches!(
            SimBackend::new(Flavor::Cuda).run::<f32>(&fused, &RunOptions::default()),
            Err(BackendError::InvalidCircuit(_))
        ));
        assert!(matches!(
            SimBackend::new(Flavor::Cuda).estimate(&fused, Precision::Single),
            Err(BackendError::InvalidCircuit(_))
        ));
    }

    #[test]
    fn double_precision_roughly_twice_single_at_paper_scale() {
        let fused = paper_fused(4);
        let backend = SimBackend::new(Flavor::Hip);
        let r32 = backend.estimate(&fused, Precision::Single).unwrap();
        let r64 = backend.estimate(&fused, Precision::Double).unwrap();
        let ratio = r64.simulated_seconds / r32.simulated_seconds;
        assert!(
            (1.7..=2.1).contains(&ratio),
            "double/single ratio {ratio} out of the paper's 1.8-2× band"
        );
    }

    #[test]
    fn estimate_matches_run_launch_sequence() {
        // The dry-run and the functional run must traverse identical
        // kernel sequences with identical modeled durations.
        let circuit = generate_rqc(&RqcOptions::for_qubits(12, 6, 4));
        let fused = fuse(&circuit, 3);
        for flavor in Flavor::all() {
            let (_, run) = run_flavor::<f32>(flavor, &fused);
            let est = SimBackend::new(flavor).estimate(&fused, Precision::Single).unwrap();
            assert_eq!(run.kernels.len(), est.kernels.len(), "{flavor:?}");
            for (a, b) in run.kernels.iter().zip(est.kernels.iter()) {
                assert_eq!(a.name, b.name, "{flavor:?}");
                assert_eq!(a.count, b.count, "{flavor:?}");
                assert!((a.time_us - b.time_us).abs() < 1e-6, "{flavor:?} {}", a.name);
            }
            assert!((run.simulated_seconds - est.simulated_seconds).abs() < 1e-9, "{flavor:?}");
        }
    }

    #[test]
    fn estimate_and_run_agree_across_a_measurement() {
        use gpu_model::trace::{SpanKind, TraceSink, TraceSpan};
        use qsim_circuit::gates::GateKind;
        use qsim_circuit::Circuit;
        use std::sync::{Arc, Mutex};

        #[derive(Default)]
        struct Spans(Mutex<Vec<TraceSpan>>);
        impl TraceSink for Spans {
            fn record(&self, span: TraceSpan) {
                self.0.lock().unwrap().push(span);
            }
        }

        // A register so small that a fused matrix (8×8) outweighs the
        // state (8 amplitudes): the copy stream is the critical path, so
        // the host sync between a measurement's D2H and H2D, which holds
        // every later upload behind the D2H, moves the total. The dry walk
        // must make the same sync.
        let mut c = Circuit::new(3);
        c.add(0, GateKind::H, &[0]);
        c.add(1, GateKind::Cnot, &[0, 1]);
        c.add(2, GateKind::Measurement, &[0]);
        for (t, (a, b)) in [(0, 1), (1, 2), (0, 2), (0, 1), (1, 2)].into_iter().enumerate() {
            c.add(3 + 2 * t, GateKind::H, &[a]);
            c.add(4 + 2 * t, GateKind::Cnot, &[a, b]);
        }
        let fused = fuse(&c, 3);
        for flavor in [Flavor::Cuda, Flavor::Hip] {
            let (ran, dry) = (Arc::new(Spans::default()), Arc::new(Spans::default()));
            let (_, run) = SimBackend::with_trace(flavor, ran.clone())
                .run::<f64>(&fused, &RunOptions::default())
                .unwrap();
            let est = SimBackend::with_trace(flavor, dry.clone())
                .estimate(&fused, Precision::Double)
                .unwrap();
            assert_eq!(run.simulated_seconds, est.simulated_seconds, "{flavor:?}");
            let ran = ran.0.lock().unwrap();
            assert_eq!(*ran, *dry.0.lock().unwrap(), "{flavor:?}");

            let d2h = ran.iter().find(|s| s.kind == SpanKind::MemcpyD2H).expect("one measurement");
            let measured_at = ran.iter().position(|s| s.kind == SpanKind::MemcpyD2H).unwrap();
            let later_uploads: Vec<_> =
                ran[measured_at..].iter().filter(|s| s.stream != 0).collect();
            assert!(!later_uploads.is_empty(), "{flavor:?}");
            for upload in later_uploads {
                assert!(upload.start_us >= d2h.start_us + d2h.dur_us, "{flavor:?} {upload:?}");
            }
        }
    }

    #[test]
    fn estimate_oom_without_allocating() {
        let mut spec = Flavor::Cuda.default_spec();
        spec.memory_bytes = 1 << 20;
        let backend = SimBackend::with_spec(Flavor::Cuda, spec);
        let fused = fuse(&library::ghz(17), 2);
        assert!(matches!(
            backend.estimate(&fused, Precision::Double),
            Err(BackendError::Gpu(GpuError::OutOfMemory { .. }))
        ));
    }

    #[test]
    fn on_device_sampling_draws_from_the_state() {
        let circuit = generate_rqc(&RqcOptions::for_qubits(10, 8, 6));
        let fused = fuse(&circuit, 4);
        let backend = SimBackend::new(Flavor::Hip);
        let opts = RunOptions { seed: 5, sample_count: 20_000 };
        let (state, report) = backend.run::<f32>(&fused, &opts).unwrap();
        assert_eq!(report.samples.len(), 20_000);
        assert_eq!(report.launches_matching("SampleKernel"), 1);
        // Samples score XEB ≈ 1 against the state they came from.
        let xeb = qsim_core::statespace::linear_xeb(&state, &report.samples);
        assert!((0.8..=1.2).contains(&xeb), "on-device sample XEB {xeb}");
        // No sampling requested -> no kernel, no samples.
        let (_, quiet) = backend.run::<f32>(&fused, &RunOptions::default()).unwrap();
        assert!(quiet.samples.is_empty());
        assert_eq!(quiet.launches_matching("SampleKernel"), 0);
    }

    #[test]
    fn sweep_on_and_off_agree_bitwise_tightly() {
        // The cache-blocked sweep must be numerically indistinguishable
        // from per-gate execution on the CPU flavor.
        let circuit = generate_rqc(&RqcOptions::for_qubits(12, 8, 11));
        for max_f in [2, 3, 4] {
            let fused = fuse(&circuit, max_f);
            let mut off = SimBackend::new(Flavor::CpuAvx);
            off.set_sweep_config(qsim_core::sweep::SweepConfig::disabled());
            let (ref_state, ref_report) = off.run::<f64>(&fused, &RunOptions::default()).unwrap();

            // Small blocks exercise real multi-block runs at 12 qubits.
            let mut on = SimBackend::new(Flavor::CpuAvx);
            on.set_sweep_config(qsim_core::sweep::SweepConfig::with_block_amps(1 << 8));
            let (state, report) = on.run::<f64>(&fused, &RunOptions::default()).unwrap();

            let diff = ref_state.max_abs_diff(&state);
            assert!(diff < 1e-12, "f={max_f}: sweep diverges by {diff}");
            // Same kernel launches either way…
            let launches = |r: &RunReport| {
                r.kernels.iter().map(|k| (k.name.clone(), k.count)).collect::<Vec<_>>()
            };
            assert_eq!(launches(&report), launches(&ref_report), "f={max_f}");
            // …but gates that join a blocked run stream only residual
            // traffic, so the modeled timeline credits the sweep…
            assert!(
                report.simulated_seconds < ref_report.simulated_seconds,
                "f={max_f}: sweep got no timeline credit"
            );
            // …and there are fewer full passes over the state.
            assert_eq!(ref_report.state_passes, ref_report.fused_gates as u64);
            assert!(
                report.state_passes < report.fused_gates as u64,
                "f={max_f}: sweep formed no runs ({} passes for {} gates)",
                report.state_passes,
                report.fused_gates
            );
            assert_eq!(report.passes_saved(), ref_report.state_passes - report.state_passes);
        }
    }

    #[test]
    fn estimate_and_run_agree_on_state_passes() {
        let circuit = generate_rqc(&RqcOptions::for_qubits(12, 6, 4));
        let fused = fuse(&circuit, 3);
        for flavor in Flavor::all() {
            let backend = SimBackend::new(flavor);
            let (_, run) = backend.run::<f32>(&fused, &RunOptions::default()).unwrap();
            let est = backend.estimate(&fused, Precision::Single).unwrap();
            assert_eq!(run.state_passes, est.state_passes, "{flavor:?}");
            if flavor == Flavor::CpuAvx {
                // Default config (2^16-amplitude blocks) makes every gate
                // of a 12-qubit circuit block-local: barriers only come
                // from measurements, so passes < gates.
                assert!(run.state_passes < run.fused_gates as u64);
            } else {
                assert_eq!(run.state_passes, run.fused_gates as u64, "{flavor:?}");
            }
        }
    }

    /// `amp_updates` is the live prefix made visible: one Hadamard per
    /// qubit in ascending order runs at the floor (the 2^16 sweep block)
    /// until a gate reaches above it, then one qubit wider per gate; the
    /// same gates in descending order are at full width from the first.
    /// Dry and functional walks count alike, and `state_passes` — what the
    /// modeled device is charged — does not see the prefix.
    #[test]
    fn amp_updates_counts_the_live_prefix() {
        use qsim_circuit::gates::GateKind;
        use qsim_circuit::Circuit;

        let n = 19;
        let hadamards = |order: &mut dyn Iterator<Item = usize>| {
            let mut c = Circuit::new(n);
            for q in order {
                c.push(GateKind::H, &[q]);
            }
            fuse(&c, 1)
        };
        let backend = SimBackend::new(Flavor::CpuAvx);

        let ascending = hadamards(&mut (0..n));
        let est = backend.estimate(&ascending, Precision::Single).unwrap();
        assert_eq!(est.fused_gates, n);
        assert_eq!(est.amp_updates, (16 << 16) + (1 << 17) + (1 << 18) + (1 << 19));
        assert!(est.amp_updates < (est.fused_gates as u64) << n);
        let (_, run) = backend.run::<f32>(&ascending, &RunOptions::default()).unwrap();
        assert_eq!(run.amp_updates, est.amp_updates);
        assert_eq!(run.state_passes, est.state_passes);

        let descending = hadamards(&mut (0..n).rev());
        let est = backend.estimate(&descending, Precision::Single).unwrap();
        assert_eq!(est.amp_updates, (est.fused_gates as u64) << n);
    }

    #[test]
    fn gpu_pass_counter_matches_report() {
        let circuit = generate_rqc(&RqcOptions::for_qubits(11, 6, 2));
        let fused = fuse(&circuit, 3);
        let backend = SimBackend::new(Flavor::CpuAvx);
        let opts = RunOptions { seed: 3, sample_count: 100 };
        let (_, report) = backend.run::<f32>(&fused, &opts).unwrap();
        // Device-level accumulation = gate passes + SetStateKernel +
        // SampleKernel (one pass each).
        assert_eq!(backend.gpu().state_passes(), report.state_passes as f64 + 2.0);
    }

    #[test]
    fn sweep_respects_measurement_barriers() {
        use qsim_circuit::gates::GateKind;
        use qsim_circuit::Circuit;

        let mut c = Circuit::new(2);
        c.add(0, GateKind::H, &[0]);
        c.add(1, GateKind::Cnot, &[0, 1]);
        c.add(2, GateKind::Measurement, &[0, 1]);
        c.add(3, GateKind::H, &[0]);
        c.add(4, GateKind::H, &[1]);
        let fused = fuse(&c, 1);
        let backend = SimBackend::new(Flavor::CpuAvx);
        let (state, report) =
            backend.run::<f64>(&fused, &RunOptions { seed: 7, sample_count: 0 }).unwrap();
        // Post-measurement gates must see the collapsed state: |b0 b1⟩
        // through H⊗H has all amplitudes at magnitude 1/2.
        for i in 0..4 {
            assert!((state.amplitude(i).abs() - 0.5).abs() < 1e-12);
        }
        // Two runs (before and after the measurement barrier).
        assert_eq!(report.state_passes, 2);
        assert_eq!(report.measurements.len(), 1);
    }

    #[test]
    fn report_records_isa_and_gate_class_histogram() {
        let circuit = generate_rqc(&RqcOptions::for_qubits(12, 6, 4));
        let fused = fuse(&circuit, 3);
        let backend = SimBackend::new(Flavor::Hip);
        let (_, run) = backend.run::<f32>(&fused, &RunOptions::default()).unwrap();
        let est = backend.estimate(&fused, Precision::Single).unwrap();
        assert_eq!(run.isa, qsim_core::simd::active_isa().name());
        assert_eq!(run.isa, est.isa);
        assert_eq!(run.gate_class_counts, est.gate_class_counts);
        let total: u64 = run.gate_class_counts.iter().map(|c| c.count).sum();
        assert_eq!(total as usize, run.fused_gates);
        // The histogram's GPU marginal agrees with the modeled launch
        // split, whatever ISA the host happens to have.
        let gpu_low = run.gates_in_class(KernelClass::Low, KernelClass::Low)
            + run.gates_in_class(KernelClass::Low, KernelClass::High);
        assert_eq!(gpu_low, run.launches_matching("ApplyGateL_Kernel"));
        // Lane qubits never exceed the GPU's 5-qubit warp tile, so a
        // lane-Low gate is always GPU-Low.
        assert_eq!(run.gates_in_class(KernelClass::High, KernelClass::Low), 0);
    }

    #[test]
    fn run_plan_stamps_strategy_and_predicted_cost() {
        let circuit = generate_rqc(&RqcOptions::for_qubits(10, 6, 7));
        let backend = SimBackend::new(Flavor::Hip);
        for strategy in FusionStrategy::ALL {
            let opts = PlanOptions { strategy, max_fused_qubits: 3 };
            let plan = backend.plan_circuit(&circuit, &opts, Precision::Single);
            let (_, report) = backend.run_plan::<f32>(&plan, &RunOptions::default()).unwrap();
            assert_eq!(report.fusion_strategy, strategy.label());
            assert!(report.predicted_cost_seconds > 0.0);
            assert_eq!(report.fusion_stats.fused_gates, report.fused_gates);
            let (one, two, _) = circuit.gate_counts();
            assert_eq!(report.fusion_stats.source_gates, one + two);
            let est = backend.estimate_plan(&plan, Precision::Single).unwrap();
            assert_eq!(est.fusion_strategy, strategy.label());
            assert_eq!(est.predicted_cost_seconds, report.predicted_cost_seconds);
            assert!((est.simulated_seconds - report.simulated_seconds).abs() < 1e-9);
        }
    }

    #[test]
    fn plain_run_reports_greedy_defaults() {
        let fused = fuse(&library::bell(), 2);
        let (_, report) = run_flavor::<f64>(Flavor::Cuda, &fused);
        assert_eq!(report.fusion_strategy, "greedy");
        assert_eq!(report.predicted_cost_seconds, 0.0);
        assert_eq!(report.fusion_stats.source_gates, 2);
    }

    #[test]
    fn every_strategy_passes_the_pre_run_gate_on_every_flavor() {
        let circuit = generate_rqc(&RqcOptions::for_qubits(9, 5, 13));
        for flavor in Flavor::all() {
            let backend = SimBackend::new(flavor);
            for strategy in FusionStrategy::ALL {
                let opts = PlanOptions { strategy, max_fused_qubits: 4 };
                let plan = backend.plan_circuit(&circuit, &opts, Precision::Single);
                backend
                    .run_plan::<f32>(&plan, &RunOptions::default())
                    .unwrap_or_else(|e| panic!("{flavor:?}/{strategy:?}: {e}"));
            }
        }
    }

    #[test]
    fn auto_width_is_backend_dependent() {
        // The backend wiring must preserve the planner's Figure 9
        // asymmetry: on a low-qubit-heavy circuit the HIP backend's model
        // settles on a narrower fusion budget than the A100 backends'.
        let dense = library::random_dense(6, 40, 3);
        let mut circuit = qsim_circuit::Circuit::new(20);
        circuit.ops.clone_from(&dense.ops);
        let opts = PlanOptions { strategy: FusionStrategy::Auto, max_fused_qubits: 2 };
        let hip = SimBackend::new(Flavor::Hip).plan_circuit(&circuit, &opts, Precision::Single);
        let cuda = SimBackend::new(Flavor::Cuda).plan_circuit(&circuit, &opts, Precision::Single);
        assert!(
            hip.fused.max_fused_qubits < cuda.fused.max_fused_qubits,
            "hip chose {}, cuda chose {}",
            hip.fused.max_fused_qubits,
            cuda.fused.max_fused_qubits
        );
    }

    #[test]
    fn cancelled_run_reports_cause_and_returns_the_buffer() {
        let circuit = generate_rqc(&RqcOptions::for_qubits(10, 6, 7));
        let fused = fuse(&circuit, 2);
        let token = CancelToken::new();
        token.cancel();
        let ctx = RunContext::<f64> { reuse_buffer: None, cancel: Some(token) };
        let failure =
            SimBackend::new(Flavor::Hip).run_with(&fused, &RunOptions::default(), ctx).unwrap_err();
        match failure.error {
            BackendError::Cancelled { cause: CancelCause::Requested, at_op: 0 } => {}
            other => panic!("expected cancellation at op 0, got {other:?}"),
        }
        // The state allocation rides back for the caller's pool.
        let buf = failure.buffer.expect("cancelled run must return its buffer");
        assert_eq!(buf.len(), 1 << 10);
    }

    #[test]
    fn expired_deadline_cancels_mid_run() {
        let circuit = generate_rqc(&RqcOptions::for_qubits(10, 6, 7));
        let fused = fuse(&circuit, 2);
        let token = CancelToken::with_deadline(std::time::Duration::ZERO);
        let ctx = RunContext::<f32> { reuse_buffer: None, cancel: Some(token) };
        let failure = SimBackend::new(Flavor::Cuda)
            .run_with(&fused, &RunOptions::default(), ctx)
            .unwrap_err();
        assert!(matches!(
            failure.error,
            BackendError::Cancelled { cause: CancelCause::DeadlineExceeded, .. }
        ));
        assert!(failure.buffer.is_some());
    }

    #[test]
    fn recycled_buffer_runs_bit_identical_and_skips_allocation() {
        let circuit = generate_rqc(&RqcOptions::for_qubits(11, 6, 3));
        let fused = fuse(&circuit, 3);
        let backend = SimBackend::new(Flavor::Hip);
        let (fresh, fresh_report) = backend.run::<f64>(&fused, &RunOptions::default()).unwrap();
        assert!(!fresh_report.buffer_reused);
        assert!(fresh_report.setup_seconds > 0.0);
        // Peak = state vector + the widest transient (matrix upload
        // buffers on this flavor), so it strictly covers the state.
        assert!(fresh_report.peak_state_bytes >= fresh_report.state_bytes);

        // Recycle a dirty buffer (the previous run's amplitudes) through
        // RunContext and check the result is bit-for-bit identical.
        let recycled = fresh.clone().into_amplitudes();
        let addr = recycled.as_ptr();
        let ctx = RunContext { reuse_buffer: Some(recycled), cancel: None };
        let (state, report) = backend.run_with(&fused, &RunOptions::default(), ctx).unwrap();
        assert!(report.buffer_reused);
        assert_eq!(state.amplitudes().as_ptr(), addr, "must reuse the allocation");
        assert_eq!(state.amplitudes(), fresh.amplitudes(), "recycled run must be bit-identical");
    }

    #[test]
    fn wrong_sized_recycled_buffer_is_rejected_with_the_buffer() {
        let fused = fuse(&library::bell(), 2);
        let stale = AlignedAmps::from(vec![Cplx::<f64>::zero(); 8]); // 3-qubit buffer, 2-qubit run
        let ctx = RunContext { reuse_buffer: Some(stale), cancel: None };
        let backend = SimBackend::new(Flavor::Cuda);
        let failure = backend.run_with(&fused, &RunOptions::default(), ctx).unwrap_err();
        assert!(matches!(failure.error, BackendError::InvalidCircuit(_)));
        assert_eq!(failure.buffer.expect("buffer must survive rejection").len(), 8);
        // Nothing was launched or charged for the refused state.
        assert_eq!(backend.gpu().synchronize(), 0.0);
    }

    #[test]
    fn device_error_after_acquisition_returns_the_buffer() {
        // A device whose block limit is below the flavor's geometry refuses
        // the very first launch (SetStateKernel) — after the recycled
        // buffer was acquired. The pool's allocation must ride back.
        let fused = fuse(&library::bell(), 2);
        let mut spec = Flavor::Hip.default_spec();
        spec.max_threads_per_block = 16;
        let backend = SimBackend::with_spec(Flavor::Hip, spec);
        let recycled = AlignedAmps::from(vec![Cplx::<f32>::zero(); 4]);
        let addr = recycled.as_ptr();
        let ctx = RunContext { reuse_buffer: Some(recycled), cancel: None };
        let failure = backend.run_with(&fused, &RunOptions::default(), ctx).unwrap_err();
        assert!(
            matches!(failure.error, BackendError::Gpu(GpuError::InvalidLaunch(_))),
            "{:?}",
            failure.error
        );
        let buffer = failure.buffer.expect("a device error must hand the pooled buffer back");
        assert_eq!(buffer.as_ptr(), addr, "the same allocation");
        // The dry walk meets the same refusal.
        assert!(matches!(
            backend.estimate(&fused, Precision::Single),
            Err(BackendError::Gpu(GpuError::InvalidLaunch(_)))
        ));
    }

    /// Kernels get prefixes of the buffers the walker hands back, so these
    /// cover every slice they see: a fresh state (a heap block at 10
    /// qubits, a mapping at 19), a recycled one and a failed run's.
    #[test]
    fn every_buffer_through_the_walker_is_aligned() {
        let aligned =
            |amps: &[Cplx<f64>]| amps.as_ptr().addr().is_multiple_of(qsim_core::amps::ALIGN);
        let backend = SimBackend::new(Flavor::CpuAvx);
        for n in [10, 19] {
            let fused = fuse(&library::ghz(n), 2);
            let (fresh, _) = backend.run::<f64>(&fused, &RunOptions::default()).unwrap();
            assert!(aligned(&fresh), "{n} qubits, fresh");
            let ctx = RunContext { reuse_buffer: Some(fresh.into_amplitudes()), cancel: None };
            let (recycled, report) = backend.run_with(&fused, &RunOptions::default(), ctx).unwrap();
            assert!(report.buffer_reused && aligned(&recycled), "{n} qubits, recycled");
            let token = CancelToken::new();
            token.cancel();
            let ctx = RunContext::<f64> { reuse_buffer: None, cancel: Some(token) };
            let failure = backend.run_with(&fused, &RunOptions::default(), ctx).unwrap_err();
            assert!(aligned(&failure.buffer.expect("a buffer")), "{n} qubits, failed");
        }
    }

    /// Bytes a single private mapping may not exceed on this host, or
    /// `None` where the kernel would admit any size (`overcommit_memory`
    /// 1) or the policy cannot be read.
    fn host_commit_limit() -> Option<u64> {
        let mode = std::fs::read_to_string("/proc/sys/vm/overcommit_memory").ok()?;
        let meminfo = std::fs::read_to_string("/proc/meminfo").ok()?;
        let kib = |key: &str| -> Option<u64> {
            let line = meminfo.lines().find(|l| l.starts_with(key))?;
            Some(line.split_whitespace().nth(1)?.parse::<u64>().ok()? * 1024)
        };
        match mode.trim() {
            // Heuristic: one request may not exceed RAM plus swap.
            "0" => Some(kib("MemTotal:")? + kib("SwapTotal:")?),
            "2" => kib("CommitLimit:"),
            _ => None,
        }
    }

    /// A state the modeled device admits but the host cannot map fails
    /// with `OutOfMemory` and no buffer, instead of aborting the process.
    #[test]
    fn unallocatable_state_is_out_of_memory_not_an_abort() {
        let n = qsim_core::statevec::MAX_QUBITS;
        let bytes = 16u64 << n;
        match host_commit_limit() {
            Some(limit) if bytes >= 2 * limit => {}
            limit => {
                eprintln!("skipped: a {bytes}-byte mapping may be admitted here ({limit:?})");
                return;
            }
        }
        let mut spec = Flavor::CpuAvx.default_spec();
        spec.memory_bytes = u64::MAX;
        let backend = SimBackend::with_spec(Flavor::CpuAvx, spec);
        let mut c = qsim_circuit::Circuit::new(n);
        c.push(qsim_circuit::gates::GateKind::H, &[0]);
        let ctx = RunContext::<f64>::default();
        let failure = backend.run_with(&fuse(&c, 2), &RunOptions::default(), ctx).unwrap_err();
        assert_eq!(
            failure.error,
            BackendError::Gpu(GpuError::OutOfMemory { requested_bytes: bytes, free_bytes: 0 })
        );
        assert!(failure.buffer.is_none());
    }

    #[test]
    fn live_token_does_not_disturb_a_run() {
        let fused = fuse(&library::bell(), 2);
        let token = CancelToken::new();
        let ctx = RunContext::<f64> { reuse_buffer: None, cancel: Some(token) };
        let (state, _) =
            SimBackend::new(Flavor::Hip).run_with(&fused, &RunOptions::default(), ctx).unwrap();
        let h = std::f64::consts::FRAC_1_SQRT_2;
        assert!((state.amplitude(0).re - h).abs() < 1e-12);
    }

    #[test]
    fn thirty_one_qubit_double_exceeds_a100() {
        // 2^31 × 16 B = 32 GiB state + working set: the paper notes the
        // A100 has 40 GB; our model flags a 32-qubit double run as OOM.
        let c = qsim_circuit::Circuit::new(32);
        let fused = fuse(&c, 2);
        let backend = SimBackend::new(Flavor::Cuda);
        assert!(matches!(
            backend.estimate(&fused, Precision::Double),
            Err(BackendError::Gpu(GpuError::OutOfMemory { .. }))
        ));
        // ...while the 128 GB MI250X GCD model accepts it.
        assert!(SimBackend::new(Flavor::Hip).estimate(&fused, Precision::Double).is_ok());
    }
}
