//! The multi-GCD backend: construction, the distributed cost model,
//! planning, and the [`Placement`] its runs walk over.
//!
//! The state is sharded over `D = 2^d` modeled devices: the top `d`
//! physical qubit slots select the device ("global" qubits), the rest
//! index into each device's shard. Gates touching a global slot are
//! preceded by exchange epochs planned up-front by the [`crate::schedule`]
//! swap scheduler (batched all-to-alls with reuse-aware eviction, never
//! worse than the eager one-swap-at-a-time baseline), priced on the
//! backend's [`Topology`].
//!
//! There is no second traversal here: a run is the single-device walk
//! ([`SimBackend`]'s) over the placement this backend builds — one host
//! state in physical order, one representative device timeline charged
//! at shard width, exchanges as in-place index-bit swaps (see
//! [`qsim_backends::placement`]). With [`DistOptions::overlap`] on, each
//! exchange is split into chunks on a comm stream and pipelined against
//! the dependent gate kernel's matching chunks (double-buffering on the
//! device timeline, the same trick the single-device flavors play with
//! `hipMemcpyAsync` matrix uploads), so link time hides behind compute.
//! `run` and `estimate` are that one walk with and without states, so a
//! dry run prices exactly what a functional run pays.

use gpu_model::runtime::StreamId;
use qsim_backends::{
    BackendError, BatchResult, DistReport, Exchange, Flavor, FusionPlan, Placement, Placer,
    PlanOptions, QubitLayout, RunContext, RunOptions, RunReport, SimBackend, SubIn,
};
use qsim_core::sweep::SweepConfig;
use qsim_core::types::{Float, Precision};
use qsim_core::StateVector;
use qsim_fusion::{FusedCircuit, FusionCostModel, LaunchCostModel};

use crate::cost::DistCostModel;
use crate::interconnect::{LinkSpec, Topology};
use crate::schedule::{DistOptions, SwapSchedule};

/// A state vector sharded across several modeled devices of one flavor.
pub struct MultiGcdBackend {
    /// One representative device at shard width: the shards run in
    /// lockstep, so their timelines would all be this one. Its sweep is
    /// off — every gate is a pass of its own.
    backend: SimBackend,
    devices: usize,
    topology: Topology,
    /// The stream overlapped exchanges ride.
    comm_stream: StreamId,
    options: DistOptions,
}

impl MultiGcdBackend {
    /// `num_devices` (a power of two) devices of the flavor's default
    /// spec, joined by in-package Infinity Fabric (or NVLink for the
    /// Nvidia flavors).
    pub fn new(flavor: Flavor, num_devices: usize) -> Self {
        let link = match flavor {
            Flavor::Cuda | Flavor::CuStateVec => LinkSpec::nvlink3(),
            _ => LinkSpec::infinity_fabric_in_package(),
        };
        Self::with_topology(flavor, num_devices, Topology::Uniform(link))
    }

    /// Devices joined by an explicit topology (e.g.
    /// [`Topology::frontier_node`] for the in-package/cross-package
    /// hierarchy of the paper's testbed).
    pub fn with_topology(flavor: Flavor, num_devices: usize, topology: Topology) -> Self {
        assert!(
            num_devices.is_power_of_two() && num_devices >= 1,
            "device count must be a power of two, got {num_devices}"
        );
        let mut backend = SimBackend::new(flavor);
        backend.set_sweep_config(SweepConfig::disabled());
        let comm_stream = backend.gpu().create_stream();
        MultiGcdBackend {
            backend,
            devices: num_devices,
            topology,
            comm_stream,
            options: DistOptions::default(),
        }
    }

    /// Builder-style override of the scheduling/overlap options.
    pub fn with_options(mut self, options: DistOptions) -> Self {
        self.options = options;
        self
    }

    /// Functional + modeled execution from `|0…0⟩`.
    pub fn run<F: Float>(
        &self,
        fused: &FusedCircuit,
        opts: &RunOptions,
    ) -> Result<(StateVector<F>, RunReport), BackendError> {
        self.run_plan(&self.backend.check(fused, F::PRECISION), opts)
    }

    /// Dry run: the sharding section of the walk [`MultiGcdBackend::run`]
    /// makes, without states.
    pub fn estimate(
        &self,
        fused: &FusedCircuit,
        precision: Precision,
    ) -> Result<DistReport, BackendError> {
        let report = self.estimate_plan(&self.backend.check(fused, precision), precision)?;
        Ok(report.sharding.expect("a placed walk reports its sharding"))
    }

    /// The distributed fusion cost model: each shard's launches priced as
    /// the walk charges them (same device, same launch policy) over the
    /// *shard* width, plus modeled exchange traffic for gates the swap
    /// scheduler must localize — so `--fusion auto` prices the distributed
    /// config space (wide fused gates that force exchanges lose to
    /// narrower ones that stay local).
    pub fn cost_model(&self, precision: Precision) -> Box<dyn FusionCostModel> {
        let shard = LaunchCostModel {
            spec: self.backend.gpu().spec().clone(),
            policy: self.backend.launch_policy(precision),
            precision,
        };
        Box::new(DistCostModel::new(shard, self.devices, self.topology, self.options.policy))
    }

    /// Plan a source circuit for this sharded backend, priced by
    /// [`MultiGcdBackend::cost_model`] and checked for the sharded walk.
    pub fn plan_circuit(
        &self,
        circuit: &qsim_circuit::Circuit,
        opts: &PlanOptions,
        precision: Precision,
    ) -> FusionPlan {
        let model = self.cost_model(precision);
        let plan = qsim_fusion::plan(circuit, opts.strategy, opts.max_fused_qubits, model.as_ref());
        FusionPlan::check(plan, SweepConfig::disabled())
    }

    /// Run a planned circuit over a gang of states: the single-device
    /// [`SimBackend::run_gang`] contract (recycled buffers, cancellation,
    /// buffers back on failure) over this backend's placement.
    pub fn run_gang<F: Float>(
        &self,
        plan: &FusionPlan,
        subs: Vec<SubIn<F>>,
    ) -> Vec<BatchResult<F>> {
        self.backend.run_gang_placed(plan, subs, Some(self))
    }

    /// Run a planned circuit; the report's `sharding` section carries the
    /// exchanges.
    pub fn run_plan<F: Float>(
        &self,
        plan: &FusionPlan,
        opts: &RunOptions,
    ) -> Result<(StateVector<F>, RunReport), BackendError> {
        let mut subs = self.run_gang(plan, vec![(*opts, RunContext::default())]);
        subs.pop().expect("a walk resolves every state it was handed").map_err(|f| f.error)
    }

    /// Dry-run a planned circuit (see [`MultiGcdBackend::estimate`]).
    pub fn estimate_plan(
        &self,
        plan: &FusionPlan,
        precision: Precision,
    ) -> Result<RunReport, BackendError> {
        self.backend.estimate_placed(plan, precision, Some(self))
    }
}

impl Placer for MultiGcdBackend {
    /// Shard `plan` over these devices: the swap schedule of its fused
    /// ops, each epoch priced on the topology at `precision`.
    fn place(&self, plan: &FusionPlan, precision: Precision) -> Result<Placement, BackendError> {
        let n = plan.fused.num_qubits;
        let d = self.devices.trailing_zeros() as usize;
        if d >= n {
            return Err(BackendError::InvalidCircuit(format!(
                "{} devices need more than {n} qubits",
                self.devices
            )));
        }
        let m = n - d;
        let schedule = SwapSchedule::plan(&plan.fused, m, self.options.policy)
            .map_err(|e| BackendError::InvalidCircuit(e.to_string()))?;
        let (shard_len, amp_bytes) = (1usize << m, precision.amplitude_bytes());
        let mut link_us = 0.0;
        let exchanges = schedule
            .epochs
            .iter()
            .map(|epochs| {
                let mut op_us = 0.0;
                for epoch in epochs {
                    op_us += epoch.seconds(&self.topology, m, shard_len, amp_bytes) * 1e6;
                }
                link_us += op_us;
                let pairs = epochs.iter().flat_map(|e| e.pairs.iter().copied()).collect();
                Exchange { pairs, link_us: op_us }
            })
            .collect();
        Ok(Placement {
            layout: QubitLayout::new(n, m),
            exchanges,
            overlap: self.options.overlap.then_some((self.comm_stream, self.options.chunks)),
            sharding: DistReport {
                devices: self.devices,
                local_qubits: m,
                swaps: schedule.swaps,
                swap_epochs: schedule.num_epochs(),
                exchanged_bytes_per_device: schedule.bytes_per_device(shard_len, amp_bytes),
                exchange_seconds: link_us * 1e-6,
            },
        })
    }
}

/// The sharded backend is shareable across service worker threads: all
/// mutable state lives behind the device model's own synchronization.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MultiGcdBackend>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::SwapPolicy;
    use crate::EXCHANGE_KERNEL;
    use qsim_backends::CancelToken;
    use qsim_circuit::{generate_rqc, library, RqcOptions};
    use qsim_core::matrix::GateMatrix;
    use qsim_core::types::Cplx;
    use qsim_fusion::{fuse, FusedOp};

    fn sharding(report: &RunReport) -> &DistReport {
        report.sharding.as_ref().expect("a sharded walk reports its sharding")
    }

    /// The whole report of the dry walk [`MultiGcdBackend::estimate`] makes.
    fn estimate(
        dist: &MultiGcdBackend,
        fused: &FusedCircuit,
        precision: Precision,
    ) -> Result<RunReport, BackendError> {
        dist.estimate_plan(&dist.backend.check(fused, precision), precision)
    }

    fn single_device_state(fused: &FusedCircuit) -> StateVector<f64> {
        SimBackend::new(Flavor::Hip)
            .run::<f64>(fused, &RunOptions::default())
            .expect("single run")
            .0
    }

    #[test]
    fn one_device_matches_single_backend() {
        let fused = fuse(&library::ghz(8), 3);
        let dist = MultiGcdBackend::new(Flavor::Hip, 1);
        let (state, report) = dist.run::<f64>(&fused, &RunOptions::default()).expect("run");
        assert_eq!(sharding(&report).swaps, 0);
        assert!(single_device_state(&fused).max_abs_diff(&state) < 1e-14);
    }

    #[test]
    fn sharded_rqc_matches_single_device() {
        let circuit = generate_rqc(&RqcOptions::for_qubits(10, 8, 21));
        for f in [2usize, 3, 4] {
            let fused = fuse(&circuit, f);
            let reference = single_device_state(&fused);
            for devices in [2usize, 4, 8] {
                let dist = MultiGcdBackend::new(Flavor::Hip, devices);
                let (state, report) = dist.run::<f64>(&fused, &RunOptions::default()).expect("run");
                let diff = reference.max_abs_diff(&state);
                assert!(diff < 1e-12, "D={devices} f={f}: diff {diff}");
                // Global gates exist in an RQC this wide, so swaps happen.
                if devices > 1 {
                    let report = sharding(&report);
                    assert!(report.swaps > 0, "D={devices} f={f}");
                    assert!(report.exchanged_bytes_per_device > 0);
                    assert!(report.swap_epochs <= report.swaps);
                }
            }
        }
    }

    #[test]
    fn qft_sharded_matches() {
        let fused = fuse(&library::qft(9), 3);
        let reference = single_device_state(&fused);
        let dist = MultiGcdBackend::new(Flavor::Cuda, 4);
        let (state, _) = dist.run::<f64>(&fused, &RunOptions::default()).expect("run");
        assert!(reference.max_abs_diff(&state) < 1e-12);
    }

    #[test]
    fn estimate_matches_run_timing() {
        let circuit = generate_rqc(&RqcOptions::for_qubits(10, 6, 3));
        let fused = fuse(&circuit, 3);
        for devices in [1usize, 2, 4] {
            let a = MultiGcdBackend::new(Flavor::Hip, devices);
            let run_report = a.run::<f32>(&fused, &RunOptions::default()).expect("run").1;
            let b = MultiGcdBackend::new(Flavor::Hip, devices);
            let est = estimate(&b, &fused, Precision::Single).expect("estimate");
            let (run_sharding, est_sharding) = (sharding(&run_report), sharding(&est));
            assert_eq!(run_sharding.swaps, est_sharding.swaps, "D={devices}");
            assert_eq!(run_sharding.swap_epochs, est_sharding.swap_epochs, "D={devices}");
            assert!(
                (run_report.simulated_seconds - est.simulated_seconds).abs() < 1e-9,
                "D={devices}"
            );
        }
    }

    #[test]
    fn estimate_matches_run_timing_under_every_option_mix() {
        let circuit = generate_rqc(&RqcOptions::for_qubits(9, 6, 5));
        let fused = fuse(&circuit, 3);
        for policy in [SwapPolicy::Eager, SwapPolicy::Lookahead] {
            for overlap in [false, true] {
                let options = DistOptions { policy, overlap, chunks: 4 };
                let a = MultiGcdBackend::new(Flavor::Hip, 4).with_options(options);
                let run_report = a.run::<f32>(&fused, &RunOptions::default()).expect("run").1;
                let b = MultiGcdBackend::new(Flavor::Hip, 4).with_options(options);
                let est = estimate(&b, &fused, Precision::Single).expect("estimate");
                assert_eq!(
                    sharding(&run_report).swaps,
                    sharding(&est).swaps,
                    "{policy:?} overlap={overlap}"
                );
                assert!(
                    (run_report.simulated_seconds - est.simulated_seconds).abs() < 1e-9,
                    "{policy:?} overlap={overlap}"
                );
            }
        }
    }

    #[test]
    fn measurement_in_sharded_state() {
        let mut c = qsim_circuit::Circuit::new(6);
        use qsim_circuit::gates::GateKind;
        c.push(GateKind::H, &[0]);
        for q in 1..6 {
            c.push(GateKind::Cnot, &[q - 1, q]);
        }
        c.push(GateKind::Measurement, &[0, 1, 2, 3, 4, 5]);
        let fused = fuse(&c, 2);
        for seed in 0..10 {
            let dist = MultiGcdBackend::new(Flavor::Hip, 4);
            let (state, report) =
                dist.run::<f64>(&fused, &RunOptions { seed, sample_count: 0 }).expect("run");
            let (_, outcome) = &report.measurements[0];
            assert!(*outcome == 0 || *outcome == 0b111111, "GHZ gave {outcome:06b}");
            assert!((state.amplitude(*outcome).abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn two_level_topology_is_slower_than_uniform_fast_links() {
        use crate::interconnect::Topology;
        let circuit = generate_rqc(&RqcOptions::paper_q30());
        let fused = fuse(&circuit, 4);
        let uniform = estimate(&MultiGcdBackend::new(Flavor::Hip, 4), &fused, Precision::Single)
            .expect("estimate");
        let frontier = MultiGcdBackend::with_topology(Flavor::Hip, 4, Topology::frontier_node());
        let hierarchical = estimate(&frontier, &fused, Precision::Single).expect("estimate");
        // Same swaps and functional behaviour, slower cross-package links.
        assert_eq!(sharding(&uniform).swaps, sharding(&hierarchical).swaps);
        assert!(hierarchical.simulated_seconds > uniform.simulated_seconds);
        // ...and functional equivalence is unaffected by topology.
        let small = fuse(&generate_rqc(&RqcOptions::for_qubits(8, 4, 2)), 2);
        let (a, _) = MultiGcdBackend::new(Flavor::Hip, 4)
            .run::<f64>(&small, &RunOptions::default())
            .expect("run");
        let (b, _) = MultiGcdBackend::with_topology(Flavor::Hip, 4, Topology::frontier_node())
            .run::<f64>(&small, &RunOptions::default())
            .expect("run");
        assert!(a.max_abs_diff(&b) < 1e-15);
    }

    #[test]
    fn capacity_grows_with_devices() {
        // 34 qubits single precision = 128 GiB: too big for one GCD once
        // you go to 35, but 2 devices halve the shard.
        let c = qsim_circuit::Circuit::new(35);
        let fused = fuse(&c, 2);
        assert!(MultiGcdBackend::new(Flavor::Hip, 1).estimate(&fused, Precision::Single).is_err());
        assert!(MultiGcdBackend::new(Flavor::Hip, 2).estimate(&fused, Precision::Single).is_ok());
    }

    #[test]
    fn too_wide_gate_for_shard_is_rejected() {
        let circuit = generate_rqc(&RqcOptions::for_qubits(6, 4, 1));
        let fused = fuse(&circuit, 4);
        // 16 devices leave only 2 local qubits; a 4-qubit fused gate
        // cannot be localized.
        let dist = MultiGcdBackend::new(Flavor::Hip, 16);
        assert!(matches!(
            dist.estimate(&fused, Precision::Single),
            Err(BackendError::InvalidCircuit(_))
        ));
    }

    #[test]
    fn more_devices_fewer_seconds_at_scale() {
        // Strong scaling on the paper's 30-qubit RQC: 2 GCDs beat 1
        // despite the interconnect traffic.
        let circuit = generate_rqc(&RqcOptions::paper_q30());
        let fused = fuse(&circuit, 4);
        let seconds = |devices| {
            estimate(&MultiGcdBackend::new(Flavor::Hip, devices), &fused, Precision::Single)
                .expect("estimate")
                .simulated_seconds
        };
        let (t1, t2) = (seconds(1), seconds(2));
        assert!(t2 < t1, "2 GCDs {t2} should beat 1 GCD {t1}");
        // ...but far from perfectly (swap traffic): parallel efficiency
        // below 100 %.
        assert!(t2 > t1 / 2.0, "scaling cannot be super-linear: {t2} vs {t1}");
    }

    #[test]
    fn lookahead_moves_fewer_bytes_than_eager() {
        let circuit = generate_rqc(&RqcOptions::for_qubits(12, 16, 11));
        let fused = fuse(&circuit, 3);
        let eager = MultiGcdBackend::new(Flavor::Hip, 8)
            .with_options(DistOptions::naive())
            .estimate(&fused, Precision::Single)
            .expect("eager");
        let ahead = MultiGcdBackend::new(Flavor::Hip, 8)
            .with_options(DistOptions { policy: SwapPolicy::Lookahead, ..DistOptions::naive() })
            .estimate(&fused, Precision::Single)
            .expect("lookahead");
        assert!(
            ahead.exchanged_bytes_per_device <= eager.exchanged_bytes_per_device,
            "lookahead {} vs eager {}",
            ahead.exchanged_bytes_per_device,
            eager.exchanged_bytes_per_device
        );
        assert!(ahead.swaps <= eager.swaps);
        // Functional equivalence under both policies.
        let small = fuse(&generate_rqc(&RqcOptions::for_qubits(9, 6, 4)), 2);
        let reference = single_device_state(&small);
        for policy in [SwapPolicy::Eager, SwapPolicy::Lookahead] {
            let dist = MultiGcdBackend::new(Flavor::Hip, 4)
                .with_options(DistOptions { policy, ..DistOptions::default() });
            let (state, _) = dist.run::<f64>(&small, &RunOptions::default()).expect("run");
            assert!(reference.max_abs_diff(&state) < 1e-12, "{policy:?}");
        }
    }

    #[test]
    fn overlap_hides_link_time() {
        let circuit = generate_rqc(&RqcOptions::paper_q30());
        let fused = fuse(&circuit, 4);
        let with_overlap = |overlap| {
            let options = DistOptions { overlap, ..DistOptions::default() };
            estimate(
                &MultiGcdBackend::new(Flavor::Hip, 4).with_options(options),
                &fused,
                Precision::Single,
            )
        };
        let serialized = with_overlap(false).expect("serialized");
        let overlapped = with_overlap(true).expect("overlapped");
        // Same schedule, same bytes — only the timeline interleaving
        // differs, and pipelining must win.
        let (s, o) = (sharding(&serialized), sharding(&overlapped));
        assert_eq!(s.swaps, o.swaps);
        assert_eq!(s.exchanged_bytes_per_device, o.exchanged_bytes_per_device);
        assert!(
            overlapped.simulated_seconds < serialized.simulated_seconds,
            "overlap {} vs serialized {}",
            overlapped.simulated_seconds,
            serialized.simulated_seconds
        );
    }

    #[test]
    fn run_plan_reports_through_run_report() {
        let circuit = generate_rqc(&RqcOptions::for_qubits(9, 6, 2));
        let dist = MultiGcdBackend::new(Flavor::Hip, 4);
        let plan = dist.plan_circuit(&circuit, &PlanOptions::default(), Precision::Single);
        let (state, report) =
            dist.run_plan::<f32>(&plan, &RunOptions { seed: 1, sample_count: 64 }).expect("run");
        assert_eq!(state.num_qubits(), 9);
        assert_eq!(report.samples.len(), 64);
        assert!(report.device.starts_with("4x "));
        assert!(report.simulated_seconds > 0.0);
        assert!(report.launches_matching(EXCHANGE_KERNEL) > 0);
        let est = dist.estimate_plan(&plan, Precision::Single).expect("estimate");
        assert_eq!(est.fused_gates, report.fused_gates);
        assert_eq!(est.fusion_strategy, report.fusion_strategy);
        // The sharding section is the dry walk's, and the host-side fields
        // are the walker's own: one state held once, set up on the clock.
        let section = dist.estimate(&plan.fused, Precision::Single).expect("estimate");
        assert_eq!(report.sharding, Some(section));
        assert!(report.setup_seconds > 0.0);
        assert_eq!(report.peak_state_bytes, report.state_bytes);
        // GHZ on 20 qubits climbs the qubits one CNOT at a time, so the
        // live prefix skips host work a full-width walk would do.
        let ghz = dist.plan_circuit(&library::ghz(20), &PlanOptions::default(), Precision::Single);
        let report = dist.run_plan::<f32>(&ghz, &RunOptions::default()).expect("run").1;
        assert!(report.amp_updates < (report.fused_gates as u64) << 20, "{}", report.amp_updates);
    }

    /// A sharded run is cancellable like any other: a token that already
    /// fired stops it before the first op, and its recycled buffer rides
    /// back.
    #[test]
    fn a_cancelled_sharded_gang_hands_its_buffer_back() {
        let fused = fuse(&generate_rqc(&RqcOptions::for_qubits(10, 4, 3)), 2);
        let dist = MultiGcdBackend::new(Flavor::Hip, 4);
        let token = CancelToken::new();
        token.cancel();
        let ctx = RunContext {
            reuse_buffer: qsim_core::AlignedAmps::<f32>::try_zeroed(1 << 10),
            cancel: Some(token),
        };
        let mut results = dist.run_gang(
            &dist.backend.check(&fused, Precision::Single),
            vec![(RunOptions::default(), ctx)],
        );
        let failure = results.pop().expect("one result").expect_err("cancelled");
        assert!(
            matches!(failure.error, BackendError::Cancelled { at_op: 0, .. }),
            "{:?}",
            failure.error
        );
        assert_eq!(failure.buffer.map(|b| b.len()), Some(1 << 10));
    }

    #[test]
    fn sampling_matches_single_device_distribution() {
        let circuit = generate_rqc(&RqcOptions::for_qubits(10, 8, 6));
        let fused = fuse(&circuit, 4);
        let dist = MultiGcdBackend::new(Flavor::Hip, 4);
        let opts = RunOptions { seed: 5, sample_count: 20_000 };
        let (state, report) = dist.run::<f32>(&fused, &opts).expect("run");
        assert_eq!(report.samples.len(), 20_000);
        let xeb = qsim_core::statespace::linear_xeb(&state, &report.samples);
        assert!((0.8..=1.2).contains(&xeb), "sharded sample XEB {xeb}");
    }

    /// A hand-built 6-qubit plan of one fused gate.
    fn one_gate_plan(qubits: Vec<usize>, matrix: GateMatrix<f64>) -> FusedCircuit {
        use qsim_fusion::FusedGate;
        let gate = FusedGate::new(qubits, matrix, 1, (0, 0));
        FusedCircuit { num_qubits: 6, ops: vec![FusedOp::Unitary(gate)], max_fused_qubits: 2 }
    }

    /// The pre-run gate stands in front of the sharded walk as it does in
    /// front of the single-device one: a non-unitary plan does not run to
    /// a state of norm² 4, and malformed ones are rejected, not panicked
    /// on in the kernels.
    #[test]
    fn sharded_runs_go_through_the_pre_run_gate() {
        let mut non_unitary = GateMatrix::<f64>::identity(2);
        non_unitary.set(0, 0, Cplx::new(2.0, 0.0));
        for (code, fused) in [
            ("QP0205", one_gate_plan(vec![0], non_unitary)),
            ("QP0202", one_gate_plan(vec![0, 1], GateMatrix::identity(2))),
            ("QP0201", one_gate_plan(vec![1, 1], GateMatrix::identity(4))),
        ] {
            let rejected = |result: Result<(), BackendError>| match result {
                Err(BackendError::AnalysisRejected(diags)) => diags.iter().any(|d| d.code == code),
                _ => false,
            };
            let dist = MultiGcdBackend::new(Flavor::Hip, 2);
            let run = dist.run::<f64>(&fused, &RunOptions::default()).map(|_| ());
            assert!(rejected(run), "{code}: run");
            let estimate = dist.estimate(&fused, Precision::Double).map(|_| ());
            assert!(rejected(estimate), "{code}: estimate");
        }
    }

    #[test]
    fn sharded_reports_carry_the_plans_warnings() {
        // H·H fuses to the identity: warning QP0214, not a rejection.
        let mut c = qsim_circuit::Circuit::new(6);
        c.push(qsim_circuit::gates::GateKind::H, &[0]);
        c.push(qsim_circuit::gates::GateKind::H, &[0]);
        let (opts, run) = (PlanOptions::default(), RunOptions::default());
        let single = SimBackend::new(Flavor::Hip);
        let plan = single.plan_circuit(&c, &opts, Precision::Double);
        let warnings = single.run_plan::<f64>(&plan, &run).expect("run").1.analysis_warnings;
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("QP0214"));

        let dist = MultiGcdBackend::new(Flavor::Hip, 2);
        let plan = dist.plan_circuit(&c, &opts, Precision::Double);
        assert_eq!(dist.run_plan::<f64>(&plan, &run).expect("run").1.analysis_warnings, warnings);
        let est = dist.estimate_plan(&plan, Precision::Double).expect("estimate");
        assert_eq!(est.analysis_warnings, warnings);
        assert_eq!(dist.run::<f64>(&plan.fused, &run).expect("run").1.analysis_warnings, warnings);
    }
}
